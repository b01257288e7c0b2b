"""Signature bookkeeping: chi classification, the known-solution ledger,
the solved-signature registry, and the remaining-signature counters.

A signature is a multiset of three exponents. The registry (shipped JSON)
lists base solved families with citations and the remaining families with
their clauses. A signature is solved if a base rule matches, if it falls
outside every remaining family (the headline theorem's complement), or if
some exponent-divisor reduction lands on a solved signature; reductions
through spherical signatures prove nothing and are never used.

Registry schema, version 1. "canon - pair = n" means that removing one copy
of each pair entry from the sorted triple leaves the exponent n.

  solved rule (+ citation)  keys                 signatures
  nnn                       n_min                (n,n,n), n >= n_min
  aan                       fixed, repeated_min  (fixed,n,n), n >= repeated_min
  fixed-pair-set            pair, n_values       canon - pair = n in n_values
  fixed-pair-min            pair, n_min          canon - pair = n >= n_min
  fixed-pair-prime-min      pair, n_min          as fixed-pair-min, n prime
  exact                     triples              a listed triple, any order
  remaining family (+ id, clause; the default kind is pair)
  pair   pair, n_min, n_max[, n_extra]  canon - pair = n in n_min..n_max or n_extra
  3mn    m_min, m_max, n_max            (3,m,n), m_min <= m <= m_max, m < n <= n_max
  2mn    m_min, n_min                   (2,m,n), m_min <= m <= n, n >= n_min; unbounded

``modulus_exclusions`` (pair, moduli, citation) drop, in the published
closure, the family members whose n is a multiple of a modulus;
``expected_counts`` holds the published count per mode (ge4, beal) and
``notes`` the rule notes that discrepancy reports quote. load_registry
raises ValueError on a missing section or key and on any other kind.

Each registry is compiled once into an index: every rule and family is
filed under the exponents it fixes (a fixed-pair rule or pair family under
its sorted pair, an aan rule under its fixed exponent, the 3mn and 2mn
families under 3 and 2, an nnn rule under none, an exact triple under
itself), with its registry order. A signature tests only the entries filed
under its eight (fixed part, rest) splits, and the lowest order wins, so
the first matching rule in registry order names the citation the ledgers
print. Divisor lists come from one sieve up to the largest bounded exponent.

Every reader takes the registry path (None: the shipped file), and every
cache is keyed on it, so calls against different registries share nothing.
Each registry is read and compiled once per process, and each signature's
match and chain and each closure's ledger are computed once per registry:
count_remaining builds a fresh CountResult from the cached closure.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import product

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


# The schema above, per section: the entry label in errors, the default kind,
# the keys of every entry, and the further keys of each kind.
_SCHEMA = {
    "solved_rules": ("solved-rule", None, ("kind", "citation"), {
        "nnn": ("n_min",), "aan": ("fixed", "repeated_min"),
        "fixed-pair-set": ("pair", "n_values"), "fixed-pair-min": ("pair", "n_min"),
        "fixed-pair-prime-min": ("pair", "n_min"), "exact": ("triples",)}),
    "remaining_families": ("remaining-family", "pair", ("id", "clause"), {
        "pair": ("pair", "n_min", "n_max"), "3mn": ("m_min", "m_max", "n_max"),
        "2mn": ("m_min", "n_min")}),
    "modulus_exclusions": (None, None, ("pair", "moduli", "citation"), {None: ()}),
}


def _checked(reg: dict) -> dict:
    """reg, if it has every section, mode count and key of the schema and
    only known kinds; ValueError naming what is missing otherwise."""
    for section in (*_SCHEMA, "expected_counts", "notes"):
        if section not in reg:
            raise ValueError(f"registry has no section {section!r}")
    for mode in ("ge4", "beal"):
        if mode not in reg["expected_counts"]:
            raise ValueError(f"registry expected_counts has no key {mode!r}")
    for section, (label, default, common, per_kind) in _SCHEMA.items():
        for i, entry in enumerate(reg[section]):
            kind = entry.get("kind", default)
            missing = [k for k in common + per_kind.get(kind, ()) if k not in entry]
            if missing:
                raise ValueError(f"registry {section}[{i}] has no key {missing[0]!r}")
            if kind not in per_kind:
                raise ValueError(f"unknown {label} kind {kind!r}")
    return reg


def load_registry(path: str | None = None) -> dict:
    """The registry file at path (None: the shipped one), checked against the
    schema (ValueError if it fails). `load_registry()` and `load_registry(None)`
    share one cached dict."""
    return _registry(path)


@lru_cache(maxsize=None)
def _registry(path: str | None) -> dict:
    if path is not None:
        with open(path) as fh:
            return _checked(json.load(fh))
    with resources.files("gfekit.data").joinpath("registry.json").open() as fh:
        return _checked(json.load(fh))


def _rule_tests(rule: dict) -> list[tuple[tuple[int, ...], object]]:
    """(fixed part, test of the rest) for each shape a solved rule names."""
    kind, lo = rule["kind"], rule.get("repeated_min" if rule["kind"] == "aan" else "n_min")
    if kind == "exact":
        return [(tuple(sorted(t)), lambda rest: True) for t in rule["triples"]]
    if kind == "nnn":
        return [((), lambda rest: rest[0] == rest[2] >= lo)]
    if kind == "aan":
        return [((rule["fixed"],), lambda rest: rest[0] == rest[1] >= lo)]
    pair, values = tuple(sorted(rule["pair"])), rule.get("n_values")
    if kind == "fixed-pair-set":
        return [(pair, lambda rest: rest[0] in values)]
    prime = kind == "fixed-pair-prime-min"
    return [(pair, lambda rest: rest[0] >= lo and (not prime or is_prime(rest[0])))]


def _family_test(fam: dict) -> tuple[tuple[int, ...], object]:
    """(fixed part, reading of the rest) of a remaining family: the reading
    is (fixed pair, n) when the rest places canon in the family, else None."""
    kind = fam.get("kind", "pair")
    if kind == "pair":
        pair, lo, hi = tuple(fam["pair"]), fam["n_min"], fam["n_max"]
        extra = fam.get("n_extra", ())
        return tuple(sorted(pair)), lambda r: (
            (pair, r[0]) if lo <= r[0] <= hi or r[0] in extra else None)
    if kind == "3mn":
        lo, hi, top = fam["m_min"], fam["m_max"], fam["n_max"]
        return (3,), lambda r: (
            ((3, r[0]), r[1]) if lo <= r[0] <= hi and r[0] < r[1] <= top else None)
    lo, n_min = fam["m_min"], fam["n_min"]
    return (2,), lambda r: ((2, r[0]), r[1]) if r[0] >= lo and r[1] >= n_min else None


@lru_cache(maxsize=None)
def _index(registry_path: str | None) -> tuple:
    """The registry compiled once: (entries by fixed part, number of solved
    rules, modulus exclusions by pair, n -> divisors of n above 1). Each
    entry is (order, test, citation or clause): the solved rules take the
    orders 0, 1, ... in registry order, the remaining families those after."""
    reg = load_registry(registry_path)
    entries: dict = {}
    for order, rule in enumerate(reg["solved_rules"]):
        for fixed, test in _rule_tests(rule):
            entries.setdefault(fixed, []).append((order, test, rule["citation"]))
    n_rules = len(reg["solved_rules"])
    for order, fam in enumerate(reg["remaining_families"], n_rules):
        fixed, test = _family_test(fam)
        entries.setdefault(fixed, []).append((order, test, fam["clause"]))
    limit = max([max([fam["n_max"], *fam.get("n_extra", ())])
                 for fam in reg["remaining_families"] if "n_max" in fam] or [1])
    divs: list = [[] for _ in range(limit + 1)]
    for d in range(2, limit + 1):
        for multiple in divs[d::d]:
            multiple.append(d)
    mods = {tuple(m["pair"]): m for m in reg["modulus_exclusions"]}
    return entries, n_rules, mods, lambda n: divs[n] if n < len(divs) else divisors(n)[1:]


@lru_cache(maxsize=None)
def _match(canon: tuple[int, int, int], registry_path: str | None) -> tuple:
    """(citation of the first solved rule that matches canon, or None;
    ((fixed pair, n), clause) of each remaining family holding canon, in
    registry order). Only the entries filed under one of canon's eight
    (fixed, rest) splits are tested, whatever the registry's size."""
    entries, n_rules = _index(registry_path)[:2]
    a, b, c = canon
    splits = {(): canon, (a,): (b, c), (b,): (a, c), (c,): (a, b),
              (a, b): (c,), (a, c): (b,), (b, c): (a,), canon: ()}.items()
    hits = [(order, value, payload) for fixed, rest in splits
            for order, test, payload in entries.get(fixed, ()) if (value := test(rest))]
    hits.sort()
    cite = hits[0][2] if hits and hits[0][0] < n_rules else None
    return cite, tuple((value, clause) for order, value, clause in hits if order >= n_rules)


def _chi_of(canon: tuple[int, int, int]) -> ChiClass:
    """Sign of chi = 1/a + 1/b + 1/c - 1, compared as ab + bc + ca vs abc."""
    a, b, c = canon
    lhs, abc = a * b + b * c + c * a, a * b * c
    if lhs > abc:
        return ChiClass.SPHERICAL
    return ChiClass.EUCLIDEAN if lhs == abc else ChiClass.HYPERBOLIC


@lru_cache(maxsize=None)
def _solved(canon: tuple[int, int, int], registry_path: str | None) -> str | None:
    """Citation chain if the signature is solved, else None; None for a
    spherical one too, since its parametrized solution families prove
    nothing. The reductions are every proper exponent-divisor reduction,
    each once, in ascending divisor order: a's divisors vary slowest, c's
    fastest, so (4,6,9) starts (2,2,3), (2,2,9), (2,3,3), (2,3,9); the
    first solved one names the chain."""
    if _chi_of(canon) is ChiClass.SPHERICAL:
        return None
    base, readings = _match(canon, registry_path)
    if base is not None:
        return base
    if not readings:
        return "complement of the remaining-signature list"
    proper_divisors = _index(registry_path)[3]
    seen = {canon}
    for red in map(tuple, map(sorted, product(*map(proper_divisors, canon)))):
        if red not in seen:
            seen.add(red)
            sub = _solved(red, registry_path)
            if sub is not None:
                return f"reduces to {red}: {sub}"
    return None


_SPHERICAL = "spherical signature: parametrized solution families exist"


def status(sig: Signature, registry_path: str | None = None) -> SignatureStatus:
    """Resolution state of a signature, permutation-invariant, under the
    registry at registry_path (None: the shipped one)."""
    canon = sig.canonical
    if _chi_of(canon) is ChiClass.SPHERICAL:
        return SignatureStatus(State.OUT_OF_SCOPE, _SPHERICAL)
    cited = _solved(canon, registry_path)
    if cited is not None:
        return SignatureStatus(State.SOLVED, cited)
    readings = _match(canon, registry_path)[1]
    if not readings:
        raise AssertionError(f"unsolved signature outside every clause: {canon}")
    return SignatureStatus(State.REMAINING, readings[0][1])


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
    closure: str = "full"  # "full", "published", or "none" without exclusions
    registry_path: str | None = None  # the registry counted; not in as_dict

    @property
    def matches_expected(self) -> bool:
        return self.count == self.expected

    def discrepancy_report(self) -> dict | None:
        """Structured report when the computed count misses the published one.

        Enumerates the delta signatures between the full reduction closure
        and the weaker published-rules closure, each with its citation, so
        the divergence from the published count is fully auditable. Both
        closures are the real ones whatever this result's own closure is.
        """
        if self.matches_expected:
            return None
        full = self if self.closure == "full" \
            else count_remaining(self.mode, registry_path=self.registry_path)
        published = self if self.closure == "published" \
            else count_remaining(self.mode, closure="published",
                                 registry_path=self.registry_path)
        pub_set = set(published.ledger)
        delta = [{"signature": list(c), "citation": e["citation"]} for e in full.excluded
                 for c in [tuple(e["signature"])] if c in pub_set]
        return {
            "mode": self.mode,
            "computed": self.count,
            "closure": self.closure,
            "expected": self.expected,
            "delta_vs_expected": self.count - self.expected,
            "published_rules_count": published.count,
            "full_closure_count": full.count,
            "delta_signatures": delta,
            "rule_notes": load_registry(self.registry_path)["notes"],
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


@lru_cache(maxsize=None)
def _in_range_candidates(floor: int, registry_path: str | None) -> tuple:
    """Every canonical signature inside a bounded remaining family."""
    out = set()
    for fam in load_registry(registry_path)["remaining_families"]:
        kind = fam.get("kind", "pair")
        if kind == "2mn":
            continue  # unbounded, and its minimum exponent is 2
        if kind == "3mn":
            members = ((3, m, n) for m in range(fam["m_min"], fam["m_max"] + 1)
                       for n in range(m + 1, fam["n_max"] + 1))
        else:
            ns = [*range(fam["n_min"], fam["n_max"] + 1), *fam.get("n_extra", ())]
            members = ((*fam["pair"], n) for n in ns)
        out.update(tuple(sorted(t)) for t in members if min(t) >= floor)
    return tuple(sorted(out))


def _full_exclusion(canon: tuple[int, int, int], registry_path: str | None) -> str | None:
    """status()'s provenance for canon, or None when canon remains."""
    return _SPHERICAL if _chi_of(canon) is ChiClass.SPHERICAL else _solved(canon, registry_path)


def _published_exclusion(canon: tuple[int, int, int], registry_path: str | None
                         ) -> str | None:
    """The weaker published rule set: direct solved-family matches, the
    per-family modulus lists, and a one-step reduction of the family's
    varying exponent alone."""
    direct, readings = _match(canon, registry_path)
    if direct is not None:
        return direct
    mods, proper_divisors = _index(registry_path)[2:]
    for (pair, n), _ in readings:
        rule = mods.get(pair)
        if rule and any(n % m == 0 for m in rule["moduli"]):
            return rule["citation"]
        for d in proper_divisors(n)[:-1]:
            red = tuple(sorted(pair + (d,)))
            if _chi_of(red) is ChiClass.SPHERICAL:
                continue
            base, red_readings = _match(red, registry_path)
            if base is not None:
                return f"parameter reduces to {red}: {base}"
            if not red_readings:
                return f"parameter reduces to {red}: complement of the remaining list"
    return None


def count_remaining(mode: str, *, closure: str = "full",
                    registry_path: str | None = None) -> CountResult:
    """Count canonical remaining signatures at the mode's exponent floor.

    mode "ge4" floors at 4; "beal" floors at 3. closure="full" applies the
    recursive multi-exponent reduction closure (strictest, the default);
    closure="published" applies only the shipped modulus lists plus
    one-step reductions of the family parameter; closure="none" skips
    exclusions entirely, which strictly enlarges the ledger. registry_path
    names the registry to count (None: the shipped one).
    """
    floors = {"ge4": 4, "beal": 3}
    if mode not in floors:
        raise ValueError(f"mode must be ge4|beal, got {mode!r}")
    if closure not in ("full", "published", "none"):
        raise ValueError(f"closure must be full|published|none, got {closure!r}")
    ledger, excluded, digest = _closure(floors[mode], closure, registry_path)
    expected = load_registry(registry_path)["expected_counts"][mode]
    return CountResult(
        mode=mode, count=len(ledger), expected=expected, ledger=list(ledger),
        excluded=[{"signature": list(canon), "citation": cite}
                  for canon, cite in excluded],
        ledger_hash=digest, closure=closure,
        registry_path=registry_path,
    )


@lru_cache(maxsize=None)
def _closure(floor: int, closure: str, registry_path: str | None
             ) -> tuple[tuple, tuple, str]:
    """(ledger, (canon, citation) exclusions, ledger hash) of one closure at
    one floor of one registry; immutable, since every count_remaining call
    shares it."""
    ledger: list[tuple[int, int, int]] = []
    excluded: list[tuple[tuple[int, int, int], str]] = []
    exclusion = _full_exclusion if closure == "full" else _published_exclusion
    for canon in _in_range_candidates(floor, registry_path):
        cite = None if closure == "none" else exclusion(canon, registry_path)
        if cite is None:
            ledger.append(canon)
        else:
            excluded.append((canon, cite))
    digest = hashlib.sha256(json.dumps(ledger).encode()).hexdigest()
    return tuple(ledger), tuple(excluded), digest
