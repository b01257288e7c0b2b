"""Structure-of-solution calculators: decomposition caps per coordinate.

Each solution coordinate splits uniquely as smooth * 2^e2 * 3^e3 * l^el *
(l-part)^l. The functions here turn the shipped aggregate tables a2(p) into
certified caps on every piece: candidate sets for the l-part, integer caps
for the 2-, 3- and l-exponents, log-caps for the smooth part, collapse
thresholds, and admissible exponent ranges. All decisive comparisons are
certified (exact rationals against rational multiples of prime logs).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .arith import divisors, factor, is_prime, small_primes
from .linlog import LinLog, log_atom, log_bounds, log_of_int
from .ramification import A2_TABLES, _check_l, a1_coefficient

__all__ = [
    "StructureProfile",
    "VariableProfile",
    "structure_profile",
    "xl_candidates",
    "general_rl_cap",
    "general_rl_product_cap",
    "general_v2_sieve",
    "general_x1_collapse_threshold",
    "threers_v2_product_cap",
    "threers_v3_sieve",
    "threers_rl_product_cap",
    "threers_collapse_threshold",
    "threers_exponent_range",
    "threers_lpart_candidates",
    "twothree_admissible_t",
    "values_coprime_to",
    "GENERAL_EXPONENT_MAX",
]

# Published global caps consumed as configuration by the sieves.
GENERAL_H_CAP = Fraction(1693)        # log(x^r y^s z^t) cap at exponent floor 4
GENERAL_H2_CAP = Fraction(268)        # odd-part per-prime cap at floor 7
GENERAL_EXPONENT_MAX = 616
THREERS_X2_CAP = Fraction(494)        # cap on (exponent) * log(odd part)

# (2,3,t) published constants: overall t-candidates, log(z^t) caps, and the
# late-range prime/size caps for the coprime-to-6 part of z.
TWOTHREE_T_RULE = (353, 373)          # t <= 353 or t = 373
TWOTHREE_LOGZ_CAPS = {11: Fraction(3730), 13: Fraction(3085), 17: Fraction(2789)}
TWOTHREE_PRIME_CAPS = ((93, 31), (110, 17))
TWOTHREE_Z6_CAPS = ((95, 43), (107, 35))
TWOTHREE_SOLVED_DIVISORS = (6, 7, 8, 9, 10, 15)
TWOTHREE_EXEMPT_T = frozenset({113, 121})
# From the small-z classification: every tuple with z >= 2 has t <= 9, so the
# coprime-to-6 part of z is >= 19 once t >= 11, and never a 5/7/11 power.
TWOTHREE_Z6_MIN = 19
TWOTHREE_Z6_FORBIDDEN_BASES = (5, 7, 11)

_GENERAL_TABLE = A2_TABLES["general-2tor"]
_GENERAL_ALT = A2_TABLES["general-2tor-alt"]
_GENERAL_MU6 = A2_TABLES["general-mu6"]
# Comparison primes of the general family, ascending.
_GENERAL_POOL = tuple(sorted(_GENERAL_TABLE))
_THREERS_TABLE = A2_TABLES["threers-2tor"]
_THREERS_MU6 = A2_TABLES["threers-mu6"]

_A1_SUP_THREERS = Fraction(76, 10)     # 6 < a1(p) < 7.6 on the cube tables


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def _big_prime_slot(n: int, floor: int = 17) -> int:
    """1 if n (replaced by one of its prime divisors) can still exclude a
    comparison prime >= floor, else 0."""
    if n < floor:
        return 0
    return 1 if any(p >= floor for p in factor(n).primes()) else 0


def _table_primes_of(n: int, table: tuple[int, ...]) -> frozenset[int]:
    return frozenset(p for p in table if n % p == 0)


def _below_log(q: Fraction, p: int) -> bool:
    """Certified q < log p: screened by the cached rationals lo < log p < hi,
    with the interval comparison only for q inside [lo, hi]."""
    lo, hi = log_bounds(p)
    if q < lo:
        return True
    if q > hi:
        return False
    return LinLog.of(q) < log_atom(p)


def values_coprime_to(top: int, primes: tuple[int, ...]) -> tuple[int, ...]:
    """The integers 1..top divisible by none of the given primes."""
    return tuple(m for m in range(1, top + 1) if all(m % p for p in primes))


def _general_pool(r: int, l: int) -> list[int]:
    """The comparison primes left at exponent r: neither l nor a divisor of r."""
    return [p for p in _GENERAL_POOL if p != l and r % p]


# ---------------------------------------------------------------------------
# General family: l-part classification (the x_l table).


@lru_cache(maxsize=None)
def xl_candidates(r: int, l: int) -> tuple[int, ...]:
    """Candidate values of the l-part base for the general family.

    Fixed-point refinement: a size cap on the l-part limits which auxiliary
    primes can divide it, which pins the comparison prime q, whose a2 value
    tightens the size cap. Reproduces the published classification
    ({1,3,5} at (4,11), {1,3} at five pairs, else {1}).
    """
    if r < 4:
        raise ValueError("general family needs exponent >= 4")
    if r > GENERAL_EXPONENT_MAX:
        raise ValueError(f"exponent above the published cap {GENERAL_EXPONENT_MAX}")
    if not is_prime(l) or l < 11:
        raise ValueError("need a prime l >= 11")
    if r % l == 0:
        raise ValueError("classification needs l coprime to r")
    q_pool = _general_pool(r, l)
    bound = Fraction(GENERAL_H2_CAP, l * r)  # initial log-cap on the l-part
    for _ in range(8):
        size = LinLog.of(bound).floor_exp()
        count, prod = 0, 1  # pool primes small enough to divide the l-part
        for p in q_pool:
            prod *= p
            if prod > size:
                break
            count += 1
        if count >= len(q_pool):
            raise ValueError(f"comparison-prime pool exhausted at (r={r}, l={l})")
        q = q_pool[count]
        new_bound = Fraction(_GENERAL_TABLE[q], r * l - 4)
        if new_bound >= bound:
            break
        bound = new_bound
    return values_coprime_to(LinLog.of(bound).floor_exp(), (2, l))


def general_rl_cap(r: int, l: int) -> int:
    """Cap on the exponent of l itself in the coordinate decomposition."""
    if r < 4 or not is_prime(l) or l < 11 or r % l == 0:
        raise ValueError("need r >= 4 and a prime l >= 11 coprime to r")
    q_pool = _general_pool(r, l)
    # First pass allows the l-exponent to hide one pool prime.
    q = q_pool[1] if len(q_pool) > 1 else q_pool[0]
    prod_cap = _GENERAL_TABLE[q] / log_bounds(l)[0] + 4
    if prod_cap / r < 11:  # now too small to hide a pool prime
        q = q_pool[0]
        prod_cap = _GENERAL_TABLE[q] / log_bounds(l)[0] + 4
    return _floor_frac(prod_cap / r)


def general_rl_product_cap() -> int:
    """Global cap on (exponent) * (l-exponent) for the general family.

    The comparison-prime pool loses at most the decomposition prime and one
    replaced exponent divisor; after the first pass the l-exponent is below
    11 and cannot hide a pool prime, leaving the third pool entry against
    the smallest l = 11. Dividing by a lower bound on log(11) keeps the cap
    on the safe side.
    """
    first = _GENERAL_TABLE[_GENERAL_POOL[3]] / log_bounds(11)[0] + 4
    if first / 4 >= 11:
        raise AssertionError("first-pass l-exponent cap unexpectedly large")
    return _floor_frac(_GENERAL_TABLE[_GENERAL_POOL[2]] / log_bounds(11)[0] + 4)


# ---------------------------------------------------------------------------
# General family: 2-adic sieve (v = r2 * r).


def _adversary_sets(table: tuple[int, ...], slots: int):
    """All exclusion sets of at most `slots` table primes."""
    for size in range(slots + 1):
        for combo in itertools.combinations(table, size):
            yield frozenset(combo)


def _floor_over_log(p: int, x: LinLog) -> int:
    """floor(x / log p) for a prime p: a float estimate, checked (and
    stepped if the float was off) by two certified comparisons."""
    k = math.floor(float(x) / math.log(p))
    while log_atom(p, k) > x:
        k -= 1
    while log_atom(p, k + 1) <= x:
        k += 1
    return k


def _exponent_sieve(table: tuple[int, ...], vmax: dict[int, int], v_cap: int,
                    expos: range, offset: int, slots: int) -> tuple[int, int]:
    """Skeleton of the exponent sieves: (max of v = k*expo, max expo
    allowing k >= 1) over expo in expos and v <= v_cap.

    vmax[l] is the largest v comparison prime l admits. Adversaries exclude
    at most `slots` table primes, v - offset hides its own table primes, and
    the exponent may be replaced by any divisor >= expos.start; v <= offset
    always survives.
    """
    adversaries = list(_adversary_sets(table, slots))

    @lru_cache(maxsize=None)
    def divisor_profiles(expo: int) -> tuple[frozenset[int], ...]:
        profs = {_table_primes_of(d, table) for d in divisors(expo)
                 if d >= expos.start}
        return tuple(p for p in profs if not any(q < p for q in profs))

    def consistent(v: int, expo: int) -> bool:
        if v <= offset:
            return True
        if v > vmax[table[-1]]:
            return False
        hidden = _table_primes_of(v - offset, table)
        for adv in adversaries:
            for prof in divisor_profiles(expo):
                excl = prof | adv | hidden
                l = next((p for p in table if p not in excl), None)
                if l is None:
                    raise AssertionError("comparison-prime table exhausted")
                if v > vmax[l]:
                    break
            else:
                return True
        return False

    best_v = best_expo = 0
    for expo in expos:
        for k in range(1, v_cap // expo + 1):
            if consistent(expo * k, expo):
                best_v = max(best_v, expo * k)
                best_expo = max(best_expo, expo)
    return best_v, best_expo


@lru_cache(maxsize=None)
def general_v2_sieve() -> tuple[int, int]:
    """(max of r2*r, max exponent allowing r2 >= 1) for the general family.

    Enumerates v = r2*r up to the published height cap. A value survives if
    some signature context (the companion exponents replaced by at most one
    table prime each) blocks every comparison prime below v's level,
    simultaneously for every divisor-replacement of the exponent.
    """
    vmax = {}
    for l, a2 in _GENERAL_MU6.items():
        # Largest v with (v-4)*log2 <= a2(l) (+ 4log3 slack at l = 17).
        rhs = LinLog.of(a2) + (log_atom(3, 4) if l == 17 else 0)
        vmax[l] = 4 + _floor_over_log(2, rhs)
    v_cap = _floor_frac(GENERAL_H_CAP / log_bounds(2)[0])
    return _exponent_sieve(tuple(sorted(_GENERAL_MU6)), vmax, v_cap,
                           range(4, GENERAL_EXPONENT_MAX + 1), offset=4, slots=2)


@lru_cache(maxsize=None)
def general_x1_collapse_threshold() -> int:
    """Least r0 such that for every exponent >= r0 the smooth part is 1."""
    def collapses(r: int) -> bool:
        for p in _GENERAL_POOL:
            if r % p:
                return _below_log(Fraction(_GENERAL_TABLE[p], r - 4), 3)
        return False

    r0 = None
    for r in range(5, GENERAL_EXPONENT_MAX + 1):
        if collapses(r):
            if r0 is None:
                r0 = r
        else:
            r0 = None
    if r0 is None:
        raise AssertionError("no collapse threshold found")
    return r0


# ---------------------------------------------------------------------------
# Cube family ((3, r, s) signatures): sieves and caps.


@lru_cache(maxsize=None)
def threers_v2_product_cap() -> int:
    """Cap on (exponent)*(2-exponent). At most three comparison primes can
    be blocked (replaced exponent, companion exponent, one prime inside the
    2-exponent), so the fourth table entry bounds 3*v*log2."""
    table = tuple(sorted(_THREERS_MU6))
    cap = _floor_frac(Fraction(_THREERS_MU6[table[3]]) / (3 * log_bounds(2)[0]))
    if cap // 7 >= 17 * 19:
        raise AssertionError("2-exponent could hide two table primes")
    return cap


@lru_cache(maxsize=None)
def threers_v3_sieve() -> tuple[int, int]:
    """(max of r3*r, max exponent allowing r3 >= 1) for the cube family."""
    vmax = {}
    for l, a2 in _THREERS_TABLE.items():
        # Largest v with (3v - 3 - a1(l)) * log3 < a2(l), i.e. 3v below
        # (a2 + (3 + a1) * log3) / log3, never equal to it since a2 > 0.
        a1 = a1_coefficient("threers-2tor", l)
        vmax[l] = _floor_over_log(3, LinLog.of(a2) + log_atom(3, 3 + a1)) // 3
    v_cap = _floor_frac(THREERS_X2_CAP / log_bounds(3)[0])
    return _exponent_sieve(tuple(sorted(_THREERS_TABLE)), vmax, v_cap,
                           range(7, 668), offset=1, slots=1)


@lru_cache(maxsize=None)
def threers_rl_product_cap() -> int:
    """Cap on (exponent)*(l-exponent) via the published maximization
    max_q (a2(q)/log(q) + a1_sup)/3 over the first four table primes."""
    best = None
    for q in sorted(_THREERS_TABLE)[:4]:
        val = (Fraction(_THREERS_TABLE[q]) / log_bounds(q)[0] + _A1_SUP_THREERS) / 3
        best = val if best is None or val > best else best
    return _floor_frac(best)


def threers_exponent_range() -> tuple[int, int]:
    """Admissible exponent window for the cube family."""
    return 7, threers_v2_product_cap()


@lru_cache(maxsize=None)
def threers_collapse_threshold() -> int:
    """Least r0 with x = 2^(2-exponent) for every exponent >= r0."""
    _, r3_max = threers_v3_sieve()
    rl_gone = threers_rl_product_cap() + 1
    a2_worst = _THREERS_TABLE[sorted(_THREERS_TABLE)[2]]  # some l <= 23 is free

    def smooth_gone(r: int) -> bool:
        return _below_log(a2_worst / (3 * r - _A1_SUP_THREERS), 5)

    r0 = max(r3_max + 1, rl_gone)
    while not smooth_gone(r0):
        r0 += 1
    for r in range(r0, threers_exponent_range()[1] + 1):
        if not smooth_gone(r):
            raise AssertionError(f"smooth collapse fails at r={r}")
    return r0


def threers_lpart_candidates(r: int, s: int, l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Candidate l-part bases for the x- and y-sides of the cube family.

    Both collapse to {1}; the fixed point mirrors the published chain,
    including the 20s/7 smooth coefficient on the y-side when r = 7.
    """
    if r < 7 or s < 8:
        raise ValueError("cube-family structure caps need r >= 7, s >= 8")
    if r == 7 and s < 11:
        raise ValueError("r = 7 forces s >= 11")
    if not is_prime(l) or l < 17 or (r * s) % l == 0:
        raise ValueError("need a prime l >= 17 coprime to rs")
    table = sorted(_THREERS_TABLE)
    coeff = {"x": Fraction(3 * r),
             "y": Fraction(3 * s) if r >= 8 else Fraction(20 * s, 7)}
    avoid = (2, 3, l)
    caps = {side: max(1, LinLog.of(Fraction(THREERS_X2_CAP, expo * l)).floor_exp())
            for side, expo in (("x", r), ("y", s))}

    def refine(side: str) -> int:
        other = "y" if side == "x" else "x"
        excl = 1 + _big_prime_slot(r) + _big_prime_slot(s)
        if caps[side] >= 17:
            excl += 1
        q = table[excl]
        bound = (LinLog.of(_THREERS_TABLE[q])
                 + log_of_int(max(1, caps[side] * caps[other]), _A1_SUP_THREERS)
                 ) / (coeff[side] * l - _A1_SUP_THREERS)
        return max(values_coprime_to(bound.floor_exp(at_most=caps[side]), avoid), default=1)

    for _ in range(4):
        nxt = {side: refine(side) for side in ("x", "y")}
        if nxt == caps:
            break
        caps = nxt
    return values_coprime_to(caps["x"], avoid), values_coprime_to(caps["y"], avoid)


# ---------------------------------------------------------------------------
# (2,3,t) family: the admissible-t sieve.


@lru_cache(maxsize=None)
def twothree_admissible_t(limit: int = 1000) -> tuple[int, ...]:
    """Exponents t that survive every published constraint, t < limit.

    Combines divisibility by already-solved exponents, the overall
    t-candidate rule, and (late range) the prime-divisor and size caps on
    the coprime-to-6 part of z against the small-z classification facts.
    """
    out = []
    for t in range(11, limit):
        if any(t % d == 0 for d in TWOTHREE_SOLVED_DIVISORS):
            continue
        if t > TWOTHREE_T_RULE[0] and t != TWOTHREE_T_RULE[1]:
            continue
        if t >= TWOTHREE_PRIME_CAPS[1][0] and t not in TWOTHREE_EXEMPT_T:
            if not _twothree_z6_possible(t):
                continue
        out.append(t)
    return tuple(out)


def _late_cap(caps: tuple[tuple[int, int], ...], t: int) -> int | None:
    """The tightest of the (floor, cap) pairs whose floor t reaches."""
    return min((cap for floor, cap in caps if t >= floor), default=None)


def _twothree_z6_possible(t: int) -> bool:
    """Is any coprime-to-6 part of z compatible with the caps at this t?"""
    prime_cap = _late_cap(TWOTHREE_PRIME_CAPS, t)
    size_cap = _late_cap(TWOTHREE_Z6_CAPS, t)
    if prime_cap is None or size_cap is None:
        return True
    allowed = [p for p in small_primes(prime_cap) if p >= 5]
    values, frontier = {1}, [1]
    while frontier:
        v = frontier.pop()
        for p in allowed:
            w = v * p
            if w < size_cap and w not in values:
                values.add(w)
                frontier.append(w)
    for v in values:
        if v < TWOTHREE_Z6_MIN:
            continue  # forced into the small-z classification: impossible here
        if any(_is_power_of(v, b) for b in TWOTHREE_Z6_FORBIDDEN_BASES):
            continue
        return True
    return False


def _is_power_of(v: int, base: int) -> bool:
    while v % base == 0:
        v //= base
    return v == 1


# ---------------------------------------------------------------------------
# Profiles.


@dataclass(frozen=True)
class VariableProfile:
    name: str
    exponent: int
    smooth_log_cap: Fraction | None      # cap on log of the smooth part
    lpart_candidates: tuple[int, ...]
    cap_e2: int
    cap_e3: int
    cap_el: int
    smooth_coprime_to: tuple[int, ...]   # primes excluded from the smooth part
    notes: tuple[str, ...] = ()

    @property
    def forced_power_of_two(self) -> bool:
        """True when the smooth part is capped at log 1 = 0."""
        return self.smooth_log_cap == 0


@dataclass(frozen=True)
class StructureProfile:
    family: str
    exponents: tuple[int, ...]
    aux_prime: int
    variables: dict[str, VariableProfile]
    pair_caps: dict[str, Fraction] = field(default_factory=dict)
    exponent_range: tuple[int, int] | None = None
    notes: tuple[str, ...] = ()


def _general_variable(name: str, expo: int, l: int) -> VariableProfile:
    a1 = a1_coefficient("general-2tor-alt", l)
    rprime = expo - a1
    smooth_cap = Fraction(_GENERAL_ALT[l]) / rprime if rprime > 0 else None
    notes: list[str] = []
    rl_prod = general_rl_product_cap()
    if expo > rl_prod:
        xl: tuple[int, ...] = (1,)
        cap_el = 0
        notes.append(f"l-part trivial for exponent > {rl_prod}")
    else:
        xl = xl_candidates(expo, l)
        cap_el = min(rl_prod // expo, general_rl_cap(expo, l))
    if expo >= general_x1_collapse_threshold():
        smooth_cap = Fraction(0)
        notes.append(
            f"pure power of 2 for exponent >= {general_x1_collapse_threshold()}"
        )
    return VariableProfile(
        name=name, exponent=expo, smooth_log_cap=smooth_cap,
        lpart_candidates=xl, cap_e2=general_v2_sieve()[0] // expo, cap_e3=0,
        cap_el=cap_el, smooth_coprime_to=(2, l), notes=tuple(notes),
    )


def _a2(table: dict, family: str, l: int) -> Fraction:
    """The a2 coefficient of l in a family's table, or a ValueError that
    names the tabled primes."""
    if l not in table:
        raise ValueError(f"l={l} is not in the {family} a2 table; tabled primes: "
                         f"{', '.join(map(str, sorted(table)))}")
    return Fraction(table[l])


def structure_profile(
    family_case: str,
    exponents: tuple[int, ...],
    l: int,
) -> StructureProfile:
    """Decomposition caps for every coordinate of a signature family.

    family_case: "general" (exponent floor 4, exponents (r,s,t)),
    "threers" (cube family, exponents (r,s)), or "twothree" ((t,)).
    """
    if family_case == "general":
        r, s, t = exponents
        if min(r, s, t) < 4:
            raise ValueError("general family needs exponents >= 4")
        a2 = _a2(_GENERAL_ALT, "general", l)
        if (r * s * t) % l == 0:
            raise ValueError("need l coprime to the exponents")
        variables = {
            "x": _general_variable("x", r, l),
            "y": _general_variable("y", s, l),
            "z": _general_variable("z", t, l),
        }
        a1 = a1_coefficient("general-2tor-alt", l)
        rp, sp, tp = (Fraction(e) - a1 for e in sorted((r, s, t)))
        pair_caps = {}
        if rp + sp > 0:
            pair_caps["min-single"] = a2 / (rp + sp)
        if tp <= rp + sp and rp + sp + tp > 0:
            pair_caps["min-pair-product"] = 2 * a2 / (rp + sp + tp)
        if tp > 0:
            pair_caps["largest-single"] = a2 / tp
        return StructureProfile(
            family="general", exponents=(r, s, t), aux_prime=l,
            variables=variables, pair_caps=pair_caps,
            exponent_range=(4, general_v2_sieve()[1]),
        )

    if family_case == "threers":
        r, s = exponents
        a2 = _a2(_THREERS_TABLE, "threers", l)
        xl, yl = threers_lpart_candidates(r, s, l)
        v3_prod, r3_max = threers_v3_sieve()
        v2_prod = threers_v2_product_cap()
        rl_prod = threers_rl_product_cap()
        collapse = threers_collapse_threshold()
        variables = {}
        for name, expo, lpart in (("x", r, xl), ("y", s, yl)):
            coeff = Fraction(3 * expo)
            notes: list[str] = []
            if name == "y" and r == 7:
                coeff = Fraction(20 * s, 7)
                notes.append("smooth cap uses the 20s/7 coefficient (r = 7)")
            forced = expo >= collapse
            smooth = Fraction(0) if forced else a2 / (coeff - _A1_SUP_THREERS)
            if forced:
                notes.append(f"pure power of 2 for exponent >= {collapse}")
            variables[name] = VariableProfile(
                name=name, exponent=expo, smooth_log_cap=smooth,
                lpart_candidates=lpart, cap_e2=v2_prod // expo,
                cap_e3=0 if expo > r3_max else v3_prod // expo,
                cap_el=rl_prod // expo, smooth_coprime_to=(2, 3, l),
                notes=tuple(notes),
            )
        pair_caps = {}
        if 3 * r >= s:
            lam_cap = Fraction(4 * r * s, r + s) - a1_coefficient("threers-2tor", l)
            if lam_cap > 0:
                pair_caps["smooth-product"] = a2 / lam_cap
        return StructureProfile(
            family="threers", exponents=(r, s), aux_prime=l,
            variables=variables, pair_caps=pair_caps,
            exponent_range=threers_exponent_range(),
        )

    if family_case == "twothree":
        (t,) = exponents
        _check_l(l, forbid_13=True)  # the rule of the (2,3,t) datasets
        admissible = twothree_admissible_t()
        if t not in admissible:
            raise ValueError(f"t={t} is outside the admissible exponent set")
        logz_cap = TWOTHREE_LOGZ_CAPS.get(t, TWOTHREE_LOGZ_CAPS[17])
        cap_e2 = _floor_frac(logz_cap / (t * log_bounds(2)[0]))
        cap_e3 = _floor_frac(logz_cap / (t * log_bounds(3)[0]))
        notes: list[str] = []
        if t < 60:
            notes.append("structure caps need t >= 60; only the t-sieve applies")
            var = VariableProfile(
                name="z", exponent=t, smooth_log_cap=None, lpart_candidates=(),
                cap_e2=cap_e2, cap_e3=cap_e3, cap_el=0,
                smooth_coprime_to=(2, 3),
            )
        else:
            size_cap = _late_cap(TWOTHREE_Z6_CAPS, t)
            smooth = None if size_cap is None else log_bounds(size_cap)[1]
            var = VariableProfile(
                name="z", exponent=t, smooth_log_cap=smooth,
                lpart_candidates=(1,), cap_e2=cap_e2, cap_e3=cap_e3, cap_el=0,
                smooth_coprime_to=(2, 3),
                notes=("l-part trivial for t >= 60; coprime-to-6 part "
                       "treated as one smooth block",),
            )
        return StructureProfile(
            family="twothree", exponents=(t,), aux_prime=l,
            variables={"z": var}, exponent_range=(11, max(admissible)),
            notes=tuple(notes),
        )

    raise ValueError(f"unknown family case {family_case!r}")
