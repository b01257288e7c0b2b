"""The typed errors of every gfekit layer, in one module that imports nothing.

Each layer re-exports its own class under the same name (for example
`gfekit.linlog.PrecisionExhausted`), so callers may import it from either
place; the CLI catches them from here, so mapping an error to exit code 1
loads no layer.
"""

__all__ = [
    "FactorizationBudgetExceeded",
    "ConfigError",
    "CheckpointMismatch",
    "InvalidTriple",
    "PrecisionExhausted",
    "VolNotConfigured",
]


class FactorizationBudgetExceeded(RuntimeError):
    """Raised when the factorizer exceeds its work budget.

    Never degraded to a partial answer: a silently wrong factorization would
    corrupt every bound certificate built on top of it.
    """


class ConfigError(ValueError):
    """A BoundConfig violates its own admissibility conditions."""


class CheckpointMismatch(RuntimeError):
    """Checkpoint belongs to a different plan or fails its integrity hash."""


class InvalidTriple(ValueError):
    """The triple violates the family constraint or coprimality."""


class PrecisionExhausted(ArithmeticError):
    """A certified decision is still open at the maximum precision."""


class VolNotConfigured(LookupError):
    """A log-volume constant was requested but never configured.

    Defaulting to 0 would make every downstream exclusion certificate
    unsound, so the lookup is loud instead.
    """
