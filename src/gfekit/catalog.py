"""Signature bookkeeping: chi classification, the known-solution ledger,
the solved-signature registry, and the remaining-signature counters.

A signature is a multiset of three exponents. The registry (shipped JSON)
lists base solved families with citations and the remaining families with
their clauses. A signature is solved if a base rule matches, if it falls
outside every remaining family (the headline theorem's complement), or if
some exponent-divisor reduction lands on a solved signature; reductions
through spherical signatures prove nothing and are never used.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .arith import divisors, is_prime
from .search import SolutionRecord

__all__ = [
    "Signature",
    "SignatureStatus",
    "ChiClass",
    "classify_chi",
    "known_solutions",
    "catalan_family",
    "status",
    "count_remaining",
    "CountResult",
    "load_registry",
    "set_registry_path",
]


class ChiClass(enum.Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


class State(enum.Enum):
    SOLVED = "solved"
    REMAINING = "remaining"
    OUT_OF_SCOPE = "out-of-scope"


@dataclass(frozen=True)
class Signature:
    r: int
    s: int
    t: int

    def __post_init__(self):
        if min(self.r, self.s, self.t) < 2:
            raise ValueError("signature exponents must be >= 2")

    @property
    def canonical(self) -> tuple[int, int, int]:
        return tuple(sorted((self.r, self.s, self.t)))

    def __str__(self) -> str:
        return "({},{},{})".format(*self.canonical)


@dataclass(frozen=True)
class SignatureStatus:
    state: State
    provenance: str


def classify_chi(sig: Signature) -> ChiClass:
    return _chi_of(sig.canonical)


# ---------------------------------------------------------------------------
# Known solutions.

_NINE = (
    (2, 5, 7, 2, 3, 4),
    (7, 3, 13, 2, 2, 9),
    (2, 7, 17, 3, 71, 2),
    (3, 5, 11, 4, 122, 2),
    (17, 7, 76271, 3, 21063928, 2),
    (1414, 3, 2213459, 2, 65, 7),
    (9262, 3, 15312283, 2, 113, 7),
    (43, 8, 96222, 3, 30042907, 2),
    (33, 8, 1549034, 2, 15613, 3),
)


@dataclass(frozen=True)
class CatalanFamily:
    """The unit family 1^n + 2^3 = 3^2, parameterized over the exponent n."""

    def member(self, n: int) -> SolutionRecord:
        return SolutionRecord(x=1, y=2, z=3, r=n, s=3, t=2, sign_r=1, sign_s=1)

    def identity(self) -> str:
        return "1^n + 2^3 = 3^2"


def catalan_family() -> CatalanFamily:
    return CatalanFamily()


def known_solutions() -> list[SolutionRecord | CatalanFamily]:
    """The nine fixed identities plus the parameterized unit family."""
    out: list[SolutionRecord | CatalanFamily] = []
    for x, r, y, s, z, t in _NINE:
        rec = SolutionRecord(x=x, y=y, z=z, r=r, s=s, t=t, sign_r=1, sign_s=1)
        if not rec.verify():
            raise AssertionError(f"known solution fails verification: {rec}")
        out.append(rec)
    out.append(catalan_family())
    return out


# ---------------------------------------------------------------------------
# Registry.


_REGISTRY_PATH: list[str | None] = [None]


def set_registry_path(path: str | None) -> None:
    """Point the catalog at an alternative registry file (None = shipped)."""
    _REGISTRY_PATH[0] = path
    load_registry.cache_clear()
    _solved.cache_clear()


@lru_cache(maxsize=1)
def load_registry() -> dict:
    if _REGISTRY_PATH[0] is not None:
        with open(_REGISTRY_PATH[0]) as fh:
            return json.load(fh)
    with resources.files("gfekit.data").joinpath("registry.json").open() as fh:
        return json.load(fh)


def _match_pair(canon: tuple[int, int, int], pair: list[int]):
    """Ways to remove the two fixed entries; yields the leftover exponent."""
    a, b = pair
    values = list(canon)
    for i, u in enumerate(values):
        if u != a:
            continue
        rest = values[:i] + values[i + 1:]
        for j, v in enumerate(rest):
            if v == b:
                yield rest[:j] + rest[j + 1:]
    return


def _base_rule_match(canon: tuple[int, int, int]) -> str | None:
    for rule in load_registry()["solved_rules"]:
        kind = rule["kind"]
        if kind == "nnn":
            if canon[0] == canon[2] and canon[0] >= rule["n_min"]:
                return rule["citation"]
        elif kind == "aan":
            rest = [e for e in canon]
            if rule["fixed"] in rest:
                rest.remove(rule["fixed"])
                if rest[0] == rest[1] and rest[0] >= rule["repeated_min"]:
                    return rule["citation"]
        elif kind == "fixed-pair-set":
            for leftover in _match_pair(canon, rule["pair"]):
                if leftover[0] in rule["n_values"]:
                    return rule["citation"]
        elif kind == "fixed-pair-min":
            for leftover in _match_pair(canon, rule["pair"]):
                if leftover[0] >= rule["n_min"]:
                    return rule["citation"]
        elif kind == "fixed-pair-prime-min":
            for leftover in _match_pair(canon, rule["pair"]):
                if leftover[0] >= rule["n_min"] and is_prime(leftover[0]):
                    return rule["citation"]
        elif kind == "exact":
            if list(canon) in [sorted(t) for t in rule["triples"]]:
                return rule["citation"]
        else:
            raise ValueError(f"unknown solved-rule kind {kind!r}")
    return None


def _remaining_clause(canon: tuple[int, int, int]) -> str | None:
    for fam in load_registry()["remaining_families"]:
        kind = fam.get("kind", "pair")
        if kind == "pair" or "pair" in fam:
            for leftover in _match_pair(canon, fam["pair"]):
                n = leftover[0]
                if fam["n_min"] <= n <= fam["n_max"] or n in fam.get("n_extra", ()):
                    return fam["clause"]
        elif kind == "3mn":
            if 3 in canon:
                rest = [e for e in canon]
                rest.remove(3)
                m, n = sorted(rest)
                if fam["m_min"] <= m <= fam["m_max"] and m < n <= fam["n_max"]:
                    return fam["clause"]
        elif kind == "2mn":
            if 2 in canon:
                rest = [e for e in canon]
                rest.remove(2)
                m, n = sorted(rest)
                if m >= fam["m_min"] and n >= fam["n_min"]:
                    return fam["clause"]
        else:
            raise ValueError(f"unknown remaining-family kind {kind!r}")
    return None


def _chi_of(canon: tuple[int, int, int]) -> ChiClass:
    chi = sum(Fraction(1, e) for e in canon) - 1
    if chi > 0:
        return ChiClass.SPHERICAL
    return ChiClass.EUCLIDEAN if chi == 0 else ChiClass.HYPERBOLIC


@lru_cache(maxsize=None)
def _solved(canon: tuple[int, int, int]) -> str | None:
    """Citation chain if the signature is solved, else None.

    Never called on spherical signatures (they have parametrized solution
    families and prove nothing).
    """
    base = _base_rule_match(canon)
    if base is not None:
        return base
    if _remaining_clause(canon) is None:
        return "complement of the remaining-signature list"
    for reduced in _reductions(canon):
        if _chi_of(reduced) is ChiClass.SPHERICAL:
            continue
        sub = _solved(reduced)
        if sub is not None:
            return f"reduces to {reduced}: {sub}"
    return None


def _reductions(canon: tuple[int, int, int]):
    """All proper exponent-divisor reductions, largest-sum first."""
    a, b, c = canon
    seen = set()
    for da in divisors(a)[1:]:
        for db in divisors(b)[1:]:
            for dc in divisors(c)[1:]:
                red = tuple(sorted((da, db, dc)))
                if red != canon and red not in seen:
                    seen.add(red)
                    yield red


def status(sig: Signature) -> SignatureStatus:
    """Resolution state of a signature, permutation-invariant."""
    canon = sig.canonical
    chi = _chi_of(canon)
    if chi is ChiClass.SPHERICAL:
        return SignatureStatus(
            State.OUT_OF_SCOPE,
            "spherical signature: parametrized solution families exist",
        )
    cited = _solved(canon)
    if cited is not None:
        return SignatureStatus(State.SOLVED, cited)
    clause = _remaining_clause(canon)
    if clause is None:
        raise AssertionError(f"unsolved signature outside every clause: {canon}")
    return SignatureStatus(State.REMAINING, clause)


# ---------------------------------------------------------------------------
# Counters.


@dataclass
class CountResult:
    mode: str
    count: int
    expected: int
    ledger: list[tuple[int, int, int]]
    excluded: list[dict]
    ledger_hash: str
    closure: str = "full"

    @property
    def matches_expected(self) -> bool:
        return self.count == self.expected

    def discrepancy_report(self) -> dict | None:
        """Structured report when the computed count misses the published one.

        Enumerates the delta signatures between the full reduction closure
        and the weaker published-rules closure, each with its citation, so
        the divergence from the published count is fully auditable.
        """
        if self.matches_expected:
            return None
        other = count_remaining(self.mode, closure="published") \
            if self.closure == "full" else count_remaining(self.mode, closure="full")
        full, published = (self, other) if self.closure == "full" else (other, self)
        pub_set = set(published.ledger)
        delta = [
            {"signature": list(c), "citation": e["citation"]}
            for e in full.excluded
            for c in [tuple(e["signature"])]
            if c in pub_set
        ]
        return {
            "mode": self.mode,
            "computed": self.count,
            "closure": self.closure,
            "expected": self.expected,
            "delta_vs_expected": self.count - self.expected,
            "published_rules_count": published.count,
            "full_closure_count": full.count,
            "delta_signatures": delta,
            "rule_notes": load_registry()["notes"],
            "excluded_in_range": self.excluded,
        }

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "count": self.count,
            "expected": self.expected,
            "matches_expected": self.matches_expected,
            "ledger_hash": self.ledger_hash,
            "remaining": [list(c) for c in self.ledger],
            "excluded_in_range": self.excluded,
            "discrepancy": self.discrepancy_report(),
        }


def _in_range_candidates(floor: int):
    """Every canonical signature inside a bounded remaining family."""
    out = set()
    for fam in load_registry()["remaining_families"]:
        kind = fam.get("kind", "pair")
        if kind == "2mn":
            continue  # unbounded, and its minimum exponent is 2
        if kind == "3mn":
            for m in range(fam["m_min"], fam["m_max"] + 1):
                for n in range(m + 1, fam["n_max"] + 1):
                    canon = tuple(sorted((3, m, n)))
                    if canon[0] >= floor:
                        out.add(canon)
            continue
        a, b = fam["pair"]
        ns = list(range(fam["n_min"], fam["n_max"] + 1)) + list(fam.get("n_extra", ()))
        for n in ns:
            canon = tuple(sorted((a, b, n)))
            if canon[0] >= floor:
                out.add(canon)
    return sorted(out)


def _published_exclusion(canon: tuple[int, int, int]) -> str | None:
    """The weaker published rule set: direct solved-family matches, the
    per-family modulus lists, and a one-step reduction of the family's
    varying exponent alone."""
    direct = _base_rule_match(canon)
    if direct is not None:
        return direct
    reg = load_registry()
    pairs = []
    for fam in reg["remaining_families"]:
        if "pair" in fam:
            for n in _match_pair(canon, fam["pair"]):
                if fam["n_min"] <= n[0] <= fam["n_max"] or n[0] in fam.get("n_extra", ()):
                    pairs.append((tuple(fam["pair"]), n[0]))
        elif fam.get("kind") == "3mn" and 3 in canon:
            rest = [e for e in canon]
            rest.remove(3)
            m, n = sorted(rest)
            if fam["m_min"] <= m <= fam["m_max"] and m < n <= fam["n_max"]:
                pairs.append(((3, m), n))
    mods = {tuple(m["pair"]): m for m in reg["modulus_exclusions"]}
    for pair, n in pairs:
        rule = mods.get(pair)
        if rule and any(n % m == 0 for m in rule["moduli"]):
            return rule["citation"]
        for d in divisors(n)[1:-1]:
            red = tuple(sorted(pair + (d,)))
            if _chi_of(red) is ChiClass.SPHERICAL:
                continue
            base = _base_rule_match(red)
            if base is not None:
                return f"parameter reduces to {red}: {base}"
            if _remaining_clause(red) is None:
                return f"parameter reduces to {red}: complement of the remaining list"
    return None


def count_remaining(mode: str, *, use_exclusions: bool = True,
                    closure: str = "full") -> CountResult:
    """Count canonical remaining signatures at the mode's exponent floor.

    mode "ge4" floors at 4; "beal" floors at 3. closure="full" applies the
    recursive multi-exponent reduction closure (strictest, the default);
    closure="published" applies only the shipped modulus lists plus
    one-step reductions of the family parameter. use_exclusions=False skips
    exclusions entirely, which strictly enlarges the ledger.
    """
    floors = {"ge4": 4, "beal": 3}
    if mode not in floors:
        raise ValueError(f"mode must be ge4|beal, got {mode!r}")
    if closure not in ("full", "published"):
        raise ValueError(f"closure must be full|published, got {closure!r}")
    floor = floors[mode]
    ledger: list[tuple[int, int, int]] = []
    excluded: list[dict] = []
    for canon in _in_range_candidates(floor):
        if not use_exclusions:
            ledger.append(canon)
            continue
        if closure == "full":
            st = status(Signature(*canon))
            if st.state is State.REMAINING:
                ledger.append(canon)
            else:
                excluded.append({"signature": list(canon), "citation": st.provenance})
        else:
            cite = _published_exclusion(canon)
            if cite is None:
                ledger.append(canon)
            else:
                excluded.append({"signature": list(canon), "citation": cite})
    digest = hashlib.sha256(json.dumps(ledger).encode()).hexdigest()
    expected = load_registry()["expected_counts"][mode]
    return CountResult(
        mode=mode, count=len(ledger), expected=expected,
        ledger=ledger, excluded=excluded, ledger_hash=digest, closure=closure,
    )
