"""Ramification datasets, log-volume tables and the coefficient formulas.

The datasets are transcribed listings: per-prime sets of admissible
ramification indices for the torsion-field towers built over each Frey
family, with the auxiliary primes l (and q) substituted in; they are the one
copy of those indices. The log-volume constants attached to a dataset are
external configuration (VolTable starts empty); the only numbers the source
publishes are per-lemma aggregate tables a2(p), which the structure caps and
campaign plans read from A2_TABLES. default_profile holds the one a1/a4
formula that both the bound configurations and the structure lemmas use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import divisors, is_prime
from .errors import VolNotConfigured
from .freycurves import FreyFamily

__all__ = [
    "RamificationDataset",
    "VolTable",
    "VolNotConfigured",
    "dataset",
    "A2_TABLES",
    "default_profile",
    "a1_coefficient",
]


@dataclass(frozen=True)
class RamificationDataset:
    family: FreyFamily
    kind: int
    l0: int
    e0: int
    s0: frozenset[int]
    gen_mult: frozenset[int]
    per_prime: dict[int, tuple[frozenset[int], frozenset[int]]]  # p -> (good, mult)
    q: int | None = None


def _even_divisors(n: int) -> frozenset[int]:
    return frozenset(d for d in divisors(n) if d % 2 == 0)


def _check_l(l: int, *, forbid_13: bool = False) -> None:
    if l < 11 or not is_prime(l):
        raise ValueError(f"auxiliary prime l must be a prime >= 11, got {l}")
    if forbid_13 and l == 13:
        raise ValueError("auxiliary prime l must not be 13 in the (2,3,t) and cube families")


def dataset(family: FreyFamily, kind: int, l: int, q: int | None = None) -> RamificationDataset:
    """Build the catalog dataset for (family, kind) at auxiliary prime l.

    The prime q is required exactly for the 2-torsion dataset of the
    (2,3,t) family and must satisfy q >= 5.
    """
    lgood = frozenset({l - 1, l * (l - 1), l * l - 1})

    if family is FreyFamily.GENERAL_ABC and kind in (1, 2):
        _check_l(l)
        per = {
            2: (frozenset({2}), frozenset({2, 6, 2 * l, 6 * l})),
            3: (frozenset({2, 6, 8}), frozenset({2, 6, 2 * l, 6 * l})),
            l: (lgood if kind == 1 else frozenset(),
                frozenset({l - 1, 3 * (l - 1), l * (l - 1), 3 * l * (l - 1)})),
        }
        return RamificationDataset(family, kind, l, 3, frozenset({2, 3, l}),
                                   frozenset({1, 3, l, 3 * l}), per)

    if family is FreyFamily.GENERAL_ABC and kind in (3, 4):
        _check_l(l)
        per = {
            2: (frozenset({2}), frozenset({2, 2 * l})),
            l: (lgood if kind == 3 else frozenset(),
                frozenset({l - 1, l * (l - 1)})),
        }
        return RamificationDataset(family, kind, l, 1, frozenset({2, l}),
                                   frozenset({1, l}), per)

    if family in (FreyFamily.TWO_THREE, FreyFamily.THREE_RS) and kind == 1:
        _check_l(l, forbid_13=True)
        per = {
            2: (_even_divisors(2**8 * 3**2), _even_divisors(24 * l)),
            3: (_even_divisors(2**6 * 3**2), _even_divisors(48 * l)),
            l: (lgood, frozenset((l - 1) * e for e in divisors(12 * l))),
        }
        return RamificationDataset(family, kind, l, 12, frozenset({2, 3, l}),
                                   frozenset(divisors(12 * l)), per)

    if family is FreyFamily.TWO_THREE and kind == 2:
        _check_l(l, forbid_13=True)
        if q is None or q < 5 or not is_prime(q):
            raise ValueError("the (2,3,t) 2-torsion dataset needs a prime q >= 5")
        if q * (q * q - 1) % l == 0:
            raise ValueError(f"need l coprime to q(q^2-1); got l={l}, q={q}")
        per = {
            2: (_even_divisors(2**5 * 3**2), _even_divisors(8 * q * l)),
            3: (frozenset({1}), _even_divisors(2 * q * l)),
            q: (frozenset({q - 1, q * (q - 1), q * q - 1}),
                frozenset((q - 1) * e for e in divisors(2 * l))),
            l: (lgood, frozenset((l - 1) * e for e in divisors(2 * l))),
        }
        return RamificationDataset(family, kind, l, 2, frozenset({2, 3, q, l}),
                                   frozenset({1, 2, l, 2 * l}), per, q=q)

    if family is FreyFamily.THREE_RS and kind in (2, 3):
        _check_l(l, forbid_13=True)
        per = {
            2: (_even_divisors(96), _even_divisors(8 * l)),
            3: (_even_divisors(12), _even_divisors(8 * l)),
            l: (lgood if kind == 2 else frozenset(),
                frozenset((l - 1) * e for e in divisors(4 * l))),
        }
        return RamificationDataset(family, kind, l, 4, frozenset({2, 3, l}),
                                   frozenset(divisors(4 * l)), per)

    raise ValueError(f"no such dataset in catalog: ({family.name}, kind {kind})")


# ---------------------------------------------------------------------------
# Log-volume configuration, the published a2 tables and the a1 coefficients.


@dataclass
class VolTable:
    """Raw log-volume enclosures per dataset key; a missing key is an error."""

    raw: dict[tuple, Fraction] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)

    def set_raw(self, key: tuple, value: Fraction, provenance: str = "user-supplied") -> None:
        self.raw[key] = Fraction(value)
        self.provenance[str(key)] = provenance


# Published aggregate bounds a2(p), keyed by the deriving lemma. The two
# general-family tables differ only at p=23 (91.1 vs 92); both are kept.
A2_TABLES: dict[str, dict[int, Fraction]] = {
    "general-2tor": {11: Fraction("71"), 13: Fraction("74"), 17: Fraction("80"),
                     19: Fraction("84"), 23: Fraction("91.1")},
    "general-2tor-alt": {11: Fraction("71"), 13: Fraction("74"), 17: Fraction("80"),
                         19: Fraction("84"), 23: Fraction("92")},
    "general-mu6": {17: Fraction("156"), 19: Fraction("164"), 23: Fraction("182"),
                    29: Fraction("210"), 31: Fraction("219"), 37: Fraction("248")},
    "threers-2tor": {17: Fraction("403"), 19: Fraction("425"), 23: Fraction("472"),
                     29: Fraction("544"), 31: Fraction("578")},
    "threers-mu6": {17: Fraction("978"), 19: Fraction("1041"), 23: Fraction("1178"),
                    29: Fraction("1389"), 31: Fraction("1475")},
}


def default_profile(l: int, e0: int) -> tuple[Fraction, Fraction]:
    """The optional-block coefficient pair (a1(l), a4(l)) for base index e0."""
    rho = Fraction(l * l + 5 * l, l * l + l - 12)
    a1 = rho * (1 - Fraction(1, e0 * l))
    a4 = rho * Fraction(1, e0) * (1 - Fraction(1, l))
    return a1, a4


# (lam, e0) of each structure-lemma a1 table; the general family halves
# lambda = 6.
_A1_PARAMS = {
    "general-2tor": (3, 1),
    "general-2tor-alt": (3, 1),
    "general-mu6": (3, 3),
    "threers-2tor": (6, 4),
    "threers-mu6": (6, 12),
}


def a1_coefficient(kind: str, p: int) -> Fraction:
    """Exact a1(p) of a structure-lemma table: lam * default_profile(p, e0)[0]."""
    if kind not in _A1_PARAMS:
        raise ValueError(f"unknown a1 coefficient table {kind!r}")
    lam, e0 = _A1_PARAMS[kind]
    return lam * default_profile(p, e0)[0]
