"""Bound-configuration algebra, the local-global inequality chain, and
interval elimination.

A BoundConfig packages everything needed to run the elimination step: the
(possibly symbolic) quantity N whose log is being bounded, the auxiliary
prime set S, the exponent floors u0/n1(S)/nk(S), and per-prime coefficient
profiles (a1(l), a4(l), Vol(l)). From it we derive the constants
a1..a5, b1, b2 and, when b1 < 1, the open interval of log(N) values that is
provably impossible. The inequality chain is a step-by-step replay used as
an independent oracle for the closed-form interval.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .arith import FactoredInteger, factor, is_prime, k_full_part, radical
from .errors import ConfigError
from .linlog import LinLog, log_atom, log_of_int
from .ramification import VolNotConfigured, VolTable, default_profile

__all__ = [
    "BoundConfig",
    "PrimedBlock",
    "DerivedConstants",
    "EliminationResult",
    "ConfigError",
    "default_profile",
    "derived_constants",
    "forbidden_interval",
    "elimination_from_constants",
    "lemma13_chain",
    "scenario",
    "certificate",
]


@dataclass(frozen=True)
class PerPrime:
    a1: Fraction
    a4: Fraction
    vol: LinLog | None  # None until a log-volume table supplies it


@dataclass(frozen=True)
class PrimedBlock:
    u0p: int
    n1_sp: int
    n0p: int
    p_set: frozenset[int] | str  # concrete primes, or a symbolic description


@dataclass(frozen=True)
class BoundConfig:
    n_value: FactoredInteger | None  # concrete N, or None for symbolic scenarios
    n0: int
    u0: int
    p_n: int
    s_primes: tuple[int, ...]
    k: int
    s1: frozenset[int]
    n1_s: int
    nk_s: int
    lam: Fraction
    per_l: dict[int, PerPrime]
    primed: PrimedBlock | None = None
    provenance: str = ""

    @property
    def n(self) -> int:
        return len(self.s_primes)


def make_config(
    *,
    n_value: FactoredInteger | None,
    n0: int,
    u0: int,
    p_n: int,
    s_primes,
    k: int,
    s1,
    n1_s: int,
    nk_s: int,
    e0: int | None = None,
    lam: Fraction | int = 6,
    profiles: dict[int, tuple[Fraction, Fraction]] | None = None,
    vols: dict[int, LinLog | None] | None = None,
    primed: PrimedBlock | None = None,
    provenance: str = "",
) -> BoundConfig:
    """Assemble and sanity-check a BoundConfig.

    Either e0 (selecting the default coefficient profile with lam = 6) or an
    explicit per-l profiles map must be given.
    """
    s_primes = tuple(sorted(set(s_primes)))
    if len(s_primes) < 2:
        raise ConfigError("S must contain at least two primes")
    if any(l < 5 for l in s_primes):
        raise ConfigError("every prime of S must be >= 5")
    if not all(is_prime(l) for l in s_primes):
        raise ConfigError("every element of S must be prime")
    if not 2 <= k <= len(s_primes):
        raise ConfigError(f"k must satisfy 2 <= k <= |S|, got {k}")
    per_l: dict[int, PerPrime] = {}
    for l in s_primes:
        if profiles is not None and l in profiles:
            a1, a4 = profiles[l]
        elif e0 is not None:
            a1, a4 = default_profile(l, e0)
        else:
            raise ConfigError(f"no coefficient profile for l={l}")
        if not a1 >= a4 > 0:
            raise ConfigError(f"need a1(l) >= a4(l) > 0 at l={l}")
        vol = None if vols is None else vols.get(l)
        per_l[l] = PerPrime(a1, a4, vol)
    cfg = BoundConfig(
        n_value=n_value, n0=n0, u0=u0, p_n=p_n, s_primes=s_primes, k=k,
        s1=frozenset(s1), n1_s=n1_s, nk_s=nk_s, lam=Fraction(lam),
        per_l=per_l, primed=primed, provenance=provenance,
    )
    if n_value is not None:
        _check_admissible(cfg)
    return cfg


def _check_admissible(cfg: BoundConfig) -> None:
    """Verify the (a)/(b) conditions against a concrete N."""
    n = cfg.n_value
    for p, e in n.items():
        if p < cfg.p_n:
            raise ConfigError(f"prime {p} | N is below p_N = {cfg.p_n}")
        if e + factor(cfg.n0).valuation(p) < cfg.u0:
            raise ConfigError(f"v_{p}(n0*N) < u0 = {cfg.u0}")
    b_set = _partition(cfg)[1]
    for p in b_set - cfg.s1:
        if n.valuation(p) < cfg.n1_s:
            raise ConfigError(f"v_{p}(N) < n1(S) = {cfg.n1_s} for p in B\\S1")
    for p, e in n.items():
        hits = sum(1 for l in cfg.s_primes if e % l == 0)
        if hits >= cfg.k and e < cfg.nk_s:
            raise ConfigError(f"v_{p}(N) < nk(S) with {hits} S-divisors")


def _partition(cfg: BoundConfig) -> tuple[set[int], set[int], set[int]]:
    n = cfg.n_value
    support = set(n.primes())
    a_set = {p for p in cfg.s_primes if p in support}
    b_set = {p for p, e in n.items() if any(e % l == 0 for l in cfg.s_primes)}
    c_set = support - a_set - b_set
    return a_set, b_set, c_set


@dataclass(frozen=True)
class DerivedConstants:
    a1: Fraction
    a2: LinLog
    a3: LinLog
    a4: Fraction
    a5: LinLog
    b1: Fraction
    b2: LinLog
    b1p: Fraction | None

    def as_floats(self) -> dict[str, float]:
        out = {
            "a1": float(self.a1), "a2": float(self.a2), "a3": float(self.a3),
            "a4": float(self.a4), "a5": float(self.a5),
            "b1": float(self.b1), "b2": float(self.b2),
        }
        if self.b1p is not None:
            out["b1p"] = float(self.b1p)
        return out


def derived_constants(cfg: BoundConfig) -> DerivedConstants:
    n = cfg.n
    missing = [l for l, pp in cfg.per_l.items() if pp.vol is None]
    if missing:
        raise VolNotConfigured(
            f"Vol constant not configured for l in {missing} ({cfg.provenance})"
        )
    a1 = cfg.lam / n * sum(pp.a1 for pp in cfg.per_l.values())
    a2 = LinLog.of(0)
    for pp in cfg.per_l.values():
        a2 = a2 + pp.vol
    a2 = a2 * (cfg.lam / n)
    a3 = LinLog.of(0)
    for l in cfg.s_primes:
        a3 = a3 + log_atom(l)
    a4 = cfg.lam * min(pp.a4 for pp in cfg.per_l.values())
    a5 = LinLog.of(0)
    for p in sorted(cfg.s1):
        a5 = a5 + log_atom(p)
    b1 = max(Fraction(a1, cfg.u0), Fraction(cfg.k, n) + (a1 - a4) / cfg.n1_s)
    b2 = log_of_int(cfg.n0, Fraction(a1, cfg.u0)) + a2 + a3 * a1 + a5 * (a1 - a4)
    b1p = None
    if cfg.primed is not None:
        b1p = max(Fraction(a1, cfg.primed.u0p),
                  Fraction(cfg.k, n) + (a1 - a4) / cfg.primed.n1_sp)
        if b1p > b1:
            raise ConfigError("primed block must not weaken b1")
    return DerivedConstants(a1, a2, a3, a4, a5, b1, b2, b1p)


@dataclass(frozen=True)
class EliminationResult:
    applicable: bool
    mode: str
    interval: tuple[LinLog, LinLog] | None
    witness: dict

    def interval_floats(self) -> tuple[float, float] | None:
        if self.interval is None:
            return None
        return float(self.interval[0]), float(self.interval[1])


def elimination_from_constants(
    b1: Fraction, b2: LinLog | Fraction, ceiling: LinLog | Fraction, *, mode: str = "unprimed",
    b1_unprimed: Fraction | None = None,
) -> EliminationResult:
    """The elimination step alone: given b1, b2 and the ceiling nk(S)*log(pN),
    decide applicability and return the open excluded interval of log(N).

    For mode="primed", b1 here is b1' and b1_unprimed must satisfy <= 1.
    """
    if not isinstance(b2, LinLog):
        b2 = LinLog.of(b2)
    if not isinstance(ceiling, LinLog):
        ceiling = LinLog.of(ceiling)
    witness: dict = {
        "mode": mode,
        "b1": str(b1),
        "b2": float(b2),
        "ceiling": float(ceiling),
        "hypothesis": "log(N) < nk(S)*log(pN)",
    }
    if mode == "primed":
        if b1_unprimed is None or b1_unprimed > 1:
            witness["reason"] = "unprimed b1 > 1"
            return EliminationResult(False, mode, None, witness)
    if b1 >= 1:
        witness["reason"] = "b1 >= 1"
        return EliminationResult(False, mode, None, witness)
    threshold = b2 / (1 - b1)
    witness["threshold"] = float(threshold)
    if not ceiling > threshold:
        witness["reason"] = "ceiling does not exceed b2/(1-b1)"
        return EliminationResult(False, mode, None, witness)
    return EliminationResult(True, mode, (threshold, ceiling), witness)


def forbidden_interval(cfg: BoundConfig, mode: str = "unprimed") -> EliminationResult:
    """Open interval of impossible log(N) (or log(N')) values, if any."""
    if mode not in ("unprimed", "primed"):
        raise ValueError(f"mode must be unprimed|primed, got {mode!r}")
    dc = derived_constants(cfg)
    ceiling = log_atom(cfg.p_n, cfg.nk_s)
    if mode == "primed":
        if cfg.primed is None:
            raise ConfigError("config has no primed block")
        return elimination_from_constants(
            dc.b1p, dc.b2, ceiling, mode="primed", b1_unprimed=dc.b1
        )
    return elimination_from_constants(dc.b1, dc.b2, ceiling, mode="unprimed")


# ---------------------------------------------------------------------------
# Inequality-chain replay.


@dataclass(frozen=True)
class ChainStep:
    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class ChainReplay:
    partition: dict[str, tuple[int, ...]]
    steps: tuple[ChainStep, ...]
    applicable: bool
    interval: tuple[LinLog, LinLog] | None

    def all_hold(self) -> bool:
        return all(s.holds for s in self.steps)


def _log_fact(n: FactoredInteger) -> LinLog:
    out = LinLog.of(0)
    for p, e in n.items():
        out = out + log_atom(p, e)
    return out


def lemma13_chain(cfg: BoundConfig) -> ChainReplay:
    """Replay the inequality chain against a concrete N.

    Evaluates each chain inequality as a certified comparison and re-derives
    the exclusion interval by maximizing over the partition-split parameter
    instead of using the closed-form b1. Used as the oracle for
    forbidden_interval.
    """
    if cfg.n_value is None:
        raise ConfigError("chain replay needs a concrete N")
    n = cfg.n_value
    a_set, b_set, c_set = _partition(cfg)
    dc = derived_constants(cfg)

    def restrict(primes: set[int]) -> FactoredInteger:
        return FactoredInteger({p: e for p, e in n.items() if p in primes})

    n_a, n_b, n_c = restrict(a_set), restrict(b_set), restrict(c_set)
    n_ls = {l: k_full_part(n, l) for l in cfg.s_primes}
    log_n = _log_fact(n)
    steps: list[ChainStep] = []

    def check(name: str, lhs: LinLog, rhs: LinLog) -> None:
        steps.append(ChainStep(name, float(lhs), float(rhs), not lhs > rhs))

    # Admissibility of the per-l volume inequality for this N.
    for l in cfg.s_primes:
        pp = cfg.per_l[l]
        lhs = (log_n - _log_fact(n_ls[l]) - log_atom(l, n.valuation(l))) / cfg.lam
        rhs = _log_fact(radical(n)) * pp.a1 - _log_fact(radical(n_ls[l])) * pp.a4 + pp.vol
        check(f"volume inequality at l={l}", lhs, rhs)

    sum_vl = LinLog.of(0)
    for l in cfg.s_primes:
        sum_vl = sum_vl + log_atom(l, n.valuation(l))
    check("A-sum identity (<= direction)", sum_vl, _log_fact(n_a))
    check("A-sum identity (>= direction)", _log_fact(n_a), sum_vl)

    log_b_primes = _log_fact(radical(n_b))
    sum_rad_nl = LinLog.of(0)
    sum_log_nl = LinLog.of(0)
    for l in cfg.s_primes:
        sum_rad_nl = sum_rad_nl + _log_fact(radical(n_ls[l]))
        sum_log_nl = sum_log_nl + _log_fact(n_ls[l])
    check("B-primes vs radicals of N_l", log_b_primes, sum_rad_nl)
    check("C-primes vs u0", _log_fact(radical(n_c)),
          (log_of_int(cfg.n0) + _log_fact(n_c)) / cfg.u0)
    check("N_l sum vs (k-1) N_B", sum_log_nl, _log_fact(n_b) * (cfg.k - 1))
    check("B-primes vs n1(S)", log_b_primes, _log_fact(n_b) / cfg.n1_s + dc.a5)

    log_rad_n = _log_fact(radical(n))
    sum_b_primes = log_b_primes
    rhs2 = (log_rad_n * dc.a1 - sum_b_primes * dc.a4 + dc.a2
            + (log_n - _log_fact(n_c)) * Fraction(cfg.k, cfg.n))
    check("aggregate (ii)", log_n, rhs2)
    beta = Fraction(cfg.k, cfg.n) + (dc.a1 - dc.a4) / cfg.n1_s
    rhs3 = (_log_fact(radical(n_c)) * dc.a1 + (log_n - _log_fact(n_c)) * beta
            + dc.a2 + dc.a3 * dc.a1 + dc.a5 * (dc.a1 - dc.a4))
    check("aggregate (iii)", log_n, rhs3)

    # Replay of the elimination threshold: the combined inequality reads
    # log N <= b2 + m(c) log N with m(c) linear in the split c = logN_C/logN,
    # so the threshold is the max over the two endpoints.
    ceiling = log_atom(cfg.p_n, cfg.nk_s)
    branches = [Fraction(dc.a1, cfg.u0), beta]
    applicable = all(m < 1 for m in branches)
    interval = None
    if applicable:
        thr = None
        for m in branches:
            cand = dc.b2 / (1 - m)
            if thr is None or cand > thr:
                thr = cand
        if ceiling > thr:
            interval = (thr, ceiling)
            inside = log_n > thr and log_n < ceiling
            steps.append(ChainStep("concrete N avoids the interval",
                                   float(log_n), float(thr), not inside))
        else:
            applicable = False
    return ChainReplay(
        partition={"A": tuple(sorted(a_set)), "B": tuple(sorted(b_set)),
                   "C": tuple(sorted(c_set))},
        steps=tuple(steps),
        applicable=applicable and interval is not None,
        interval=interval,
    )


# ---------------------------------------------------------------------------
# Scenario builder: one lemma-specified configuration per family case.


# One row per instance of the inequality, keyed by scenario's family_case.
# family (a FreyFamily member name) and kind name the Vol dataset, and e0
# equals dataset(family, kind, l).e0; vol_log2 marks the odd-part datasets,
# whose Vol carries an extra log 2; m is the factor of nk(S) = m * (product of
# the k smallest l) and, in the general family, of n1(S) = m * min(S); primed
# names the primed blocks that apply ("general", "cube" or None); provenance
# is formatted with exps, situation, u0 and q.
_Case = namedtuple("_Case", "family kind vol_log2 n0 p_n s1 e0 m primed provenance")
_CASES = {
    "general": _Case("GENERAL_ABC", 1, False, 2**8, 2, frozenset({2}), 3, 2, "general",
                     "general signatures ({exps}), situation {situation}"),
    "general-2tor": _Case("GENERAL_ABC", 3, False, 1, 3, frozenset(), 1, 8, None,
                          "general signatures ({exps}), odd part"),
    "twothree-u0": _Case("TWO_THREE", 1, False, 1728, 2, frozenset({2, 3}), 12, 1, None,
                         "(2,3,{exps}) with u0={u0}"),
    "twothree-t": _Case("TWO_THREE", 1, False, 1728, 2, frozenset({2, 3}), 12, 1, None,
                        "(2,3,{exps}) with u0=t"),
    "twothree-q": _Case("TWO_THREE", 2, True, 27, 3, frozenset({3}), 2, 1, None,
                        "(2,3,{exps}) odd part with q={q}"),
    "threers": _Case("THREE_RS", 1, False, 27, 2, frozenset({3}), 12, 1, "cube",
                     "cube family ({exps}), situation {situation}"),
    "threers-2tor": _Case("THREE_RS", 2, True, 27, 3, frozenset({3}), 4, 1, "cube",
                          "cube family ({exps}) odd part, situation {situation}"),
}


def scenario(
    family_case: str,
    exponents: tuple[int, ...],
    situation: str = "a",
    *,
    s_primes,
    k: int,
    tables: VolTable | None = None,
    u0: int | None = None,
    q: int | None = None,
    variant: str | None = None,
) -> BoundConfig:
    """Instantiate the BoundConfig of a family case, a key of _CASES.

    The symbolic N (a monomial in the unknown solution) is left as None; n0
    is stored as its worst-case cap. Raises ConfigError naming any violated
    lemma precondition or an option the case does not use.
    """
    s_primes = tuple(sorted(set(s_primes)))
    if len(s_primes) < 2:
        raise ConfigError("S must have at least two primes")
    if family_case not in _CASES:
        raise ConfigError(f"unknown family case {family_case!r}")
    case = _CASES[family_case]
    p0, nk_s = s_primes[0], case.m * math.prod(s_primes[:k])
    if q is not None and family_case != "twothree-q":
        raise ConfigError(f"{family_case} does not use q; only twothree-q does")
    if u0 is not None and family_case in ("general-2tor", "twothree-t", "twothree-q"):
        raise ConfigError(f"{family_case} does not use u0")
    if u0 is not None and family_case == "general" and situation != "a":
        raise ConfigError("general uses u0 only in situation a")

    if case.family == "GENERAL_ABC":
        r, s, t = exponents
        if min(r, s, t) < 4:
            raise ConfigError("general family needs r,s,t >= 4")
        if any(l < 11 for l in s_primes):
            raise ConfigError("general family needs l >= 11 for every l in S")
        base_u0, n1_s, u0p = 8, case.m * p0, 8 if u0 is None else u0
        if u0p < 1:  # b1' divides a1 by u0'
            raise ConfigError(f"need u0 >= 1, got u0={u0p}")
    elif case.family == "TWO_THREE":
        (t,) = exponents
        if t < 11:
            raise ConfigError("the (2,3,t) family needs t >= 11")
        if any(l < 11 or l == 13 for l in s_primes):
            raise ConfigError("the (2,3,t) family needs l >= 11, l != 13")
        base_u0 = (11 if u0 is None else u0) if family_case == "twothree-u0" else t
        if not 11 <= base_u0 <= t:
            raise ConfigError(f"need 11 <= u0 <= t, got u0={base_u0}")
        n1_s = p0 * t if family_case == "twothree-t" else base_u0
        if family_case == "twothree-q" and (q is None or q < 5 or t % q or not is_prime(q)):
            raise ConfigError("need a prime q >= 5 dividing t")
    else:
        r, s = exponents
        if r < 4 or s < 7:
            raise ConfigError("the cube family needs r >= 4, s >= 7")
        if any(l < 11 or l == 13 for l in s_primes):
            raise ConfigError("the cube family needs l >= 11, l != 13")
        base_u0 = 7 if u0 is None else u0
        if not 7 <= base_u0 <= min(3 * r, s):
            raise ConfigError(f"need 7 <= u0 <= min(3r, s), got u0={base_u0}")
        n1_s, u0p = p0, min(3 * r, s)
    for l in s_primes:  # the cases whose lemma needs S coprime to a product
        if family_case == "general-2tor" and (r * s * t) % l == 0:
            raise ConfigError(f"need l coprime to rst; l={l} divides")
        if family_case == "twothree-t" and t % l == 0:
            raise ConfigError(f"need l coprime to t; l={l} divides t={t}")
        if family_case == "twothree-q" and (q * (q * q - 1)) % l == 0:
            raise ConfigError(f"need l coprime to q(q^2-1); l={l}")

    if situation not in ("a", "b", "c"):
        raise ConfigError(f"unknown situation {situation!r}")
    if case.primed is None and situation != "a":
        raise ConfigError(f"{family_case} has no primed block; situation must be 'a'")
    if variant is not None and situation != "c":
        raise ConfigError(f"variant {variant!r} applies only to situation c")
    primed = None
    if situation == "a" and case.primed:
        primed = PrimedBlock(u0p, max(u0p, 2 * p0), case.n0, "p | N")
    elif situation == "c":
        primed = _situation_c(case, exponents, s_primes, variant)

    raw = {} if tables is None else tables.raw
    key_q = q if family_case == "twothree-q" else None
    extra = log_atom(2) if case.vol_log2 else 0
    vols = {l: raw.get((case.family, case.kind, l, key_q)) for l in s_primes}
    vols = {l: None if v is None else LinLog.of(v) + extra for l, v in vols.items()}
    return make_config(
        n_value=None, n0=case.n0, u0=base_u0, p_n=case.p_n, s_primes=s_primes, k=k,
        s1=case.s1, n1_s=n1_s, nk_s=nk_s, e0=case.e0, vols=vols, primed=primed,
        provenance=case.provenance.format(exps=",".join(map(str, exponents)),
                                          situation=situation, u0=base_u0, q=q),
    )


def _situation_c(case: _Case, exponents, s_primes, variant) -> PrimedBlock:
    """The named situation-c branch, or the first whose product is coprime to S."""
    if case.primed == "general":
        t, r, s = sorted(exponents)  # the lemma's labels satisfy s >= r >= t
        branches = (("rst", r * s * t, 2 * t, "p | xyz"), ("rs", r * s, 2 * r, "p | xy"),
                    ("s", s, 2 * s, "p | x"))
    else:
        r, s = exponents
        branches = (("rs", r * s, min(3 * r, s), "p | xy"), ("r", r, 2 * r, "p | x"),
                    ("s", s, s, "p | y"))
    choices = {name: PrimedBlock(u0p, u0p * s_primes[0], case.n0, label)
               for name, product, u0p, label in branches if all(product % l for l in s_primes)}
    if not choices:
        raise ConfigError("no situation-c branch has its divisibility condition met")
    name = next(iter(choices)) if variant is None else variant
    if name not in choices:
        raise ConfigError(f"situation-c branch {name!r} unavailable; valid: {sorted(choices)}")
    return choices[name]


def certificate(cfg: BoundConfig, result: EliminationResult) -> dict:
    """JSON-ready exclusion certificate for one elimination run."""
    payload = {
        "provenance": cfg.provenance,
        "S": list(cfg.s_primes),
        "k": cfg.k,
        "n0": cfg.n0,
        "u0": cfg.u0,
        "p_N": cfg.p_n,
        "mode": result.mode,
        "verdict": "excluded-interval" if result.applicable else "not-applicable",
        "interval": result.interval_floats(),
        "witness": result.witness,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()
    payload["config_hash"] = digest[:16]
    payload["precision_used"] = max(
        (end.precision_used() for end in (result.interval or ()) if end.logs),
        default=0,
    )
    return payload
