"""Exhaustive search primitives over finite candidate boxes, in exact
integers.

Campaign plans describe each box coordinate by a generator spec (fixed
smooth part, caps on the 2/3/l-exponents, l-part bases, or an explicit value
list); enumerate_candidates expands a spec, and the box checks decide
exactly whether |x^r +- y^s| is a perfect power with an admissible exponent.
Every emitted record re-verifies by exact integer arithmetic. Nothing here
evaluates a logarithm: the caps that size a box are the plan builder's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import SMALL_PRIMORIAL, integer_nth_root, is_perfect_square, small_primes

__all__ = [
    "SolutionRecord",
    "enumerate_candidates",
    "check_pair",
    "check_power_tail",
    "small_z1_scan",
]


@dataclass(frozen=True)
class SolutionRecord:
    x: int
    y: int
    z: int
    r: int
    s: int
    t: int
    sign_r: int
    sign_s: int

    def verify(self) -> bool:
        if min(self.x, self.y, self.z) < 1 or self.sign_r not in (1, -1) \
                or self.sign_s not in (1, -1):
            return False
        if math.gcd(math.gcd(self.x, self.y), self.z) != 1:
            return False
        return (self.sign_r * self.x**self.r + self.sign_s * self.y**self.s
                == self.z**self.t)

    def identity(self) -> str:
        def term(sign, base, expo):
            return f"{'-' if sign < 0 else ''}{base}^{expo}"
        lhs = f"{term(self.sign_r, self.x, self.r)} + {term(self.sign_s, self.y, self.s)}"
        return f"{lhs} = {self.z}^{self.t}".replace("+ -", "- ")

    def as_dict(self) -> dict:
        return {
            "x": self.x, "y": self.y, "z": self.z,
            "r": self.r, "s": self.s, "t": self.t,
            "sign_r": self.sign_r, "sign_s": self.sign_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SolutionRecord":
        rec = cls(**{k: int(v) for k, v in d.items()})
        if not rec.verify():
            raise ValueError(f"record fails exact re-verification: {rec.identity()}")
        return rec

    def sort_key(self) -> tuple:
        return (self.z, self.t, self.x, self.r, self.y, self.s,
                self.sign_r, self.sign_s)


def _mk_record(x, r, sx, y, s, sy, z, t) -> SolutionRecord:
    rec = SolutionRecord(x=x, y=y, z=z, r=r, s=s, t=t, sign_r=sx, sign_s=sy)
    if not rec.verify():
        raise AssertionError(f"emitted record fails verification: {rec}")
    return rec


def enumerate_candidates(spec: dict) -> list[int]:
    """Candidate values for one coordinate from a generator spec, ascending
    and duplicate-free, as a fresh list.

    A spec is either {"values": [...]}, an explicit list, or
    {"smooth", "l", "e2_cap", "e3_cap", "el_cap", "lparts"}, which admits
    every smooth * 2^e2 * 3^e3 * l^el * lp^l with each exponent from 0 up to
    its cap (a missing cap is 0) and lp from lparts (default [1]). A
    generator spec is expanded once per process and read from a bounded
    cache after that; an explicit list is not cached.
    """
    if "values" in spec:
        return sorted(set(int(v) for v in spec["values"]))
    return list(_expand_spec(spec["smooth"], spec["l"], spec.get("e2_cap", 0),
                             spec.get("e3_cap", 0), spec.get("el_cap", 0),
                             tuple(spec.get("lparts", [1]))))


# Entries kept by the per-process caches of spec expansions and of support
# masks. P3(4,5,5) and P1(7,11) at box_limit=20 hold 36 distinct specs and
# mask 1,594 distinct values (pair values, tail candidates and powers 2^m);
# the bounds only keep a long run from growing without end.
_SPEC_CACHE_SIZE = 1024
_MASK_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _expand_spec(smooth: int, l: int, e2_cap: int, e3_cap: int, el_cap: int,
                 lparts: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted expansion of one generator spec (see enumerate_candidates)."""
    out = set()
    for lp in lparts:
        for el in range(el_cap + 1):
            for e3 in range(e3_cap + 1):
                for e2 in range(e2_cap + 1):
                    out.add(smooth * 2**e2 * 3**e3 * l**el * lp**l)
    return tuple(sorted(out))


# The primes below 1000 (arith.small_primes()) give the coprimality masks of
# check_pair and the moduli of the power-residue tables; a table's modulus
# stays at most the cap.
_RESIDUE_MODULUS_CAP = 2**16


def _power_flags(t: int, m: int) -> bytes:
    """m bytes, byte j set to 1 exactly when j is a t-th power modulo m."""
    flags = bytearray(m)
    for i in range(m):
        flags[pow(i, t, m)] = 1
    return bytes(flags)


@lru_cache(maxsize=None)
def _power_residues(t: int) -> tuple[int, bytes]:
    """(m, table) with table[v % m] == 0 only if v is not a t-th power.

    m is the product of the primes q < 1000 with q = 1 (mod t), taken in
    increasing order while m stays at most _RESIDUE_MODULUS_CAP; such a q
    has only (q - 1)/t + 1 t-th power residues. table[j] is 1 exactly when
    j is a t-th power modulo every such q. With no such q, m = 1 and the
    table rejects nothing.
    """
    m, qs = 1, []
    for q in small_primes():
        if q % t == 1:
            if m * q > _RESIDUE_MODULUS_CAP:
                break
            m *= q
            qs.append(q)
    mask = int.from_bytes(b"\x01" * m, "big")
    for q in qs:
        mask &= int.from_bytes(_power_flags(t, q) * (m // q), "big")
    return m, mask.to_bytes(m, "big")


def _root_sieves(exponents) -> list[tuple[int, int, bytes]]:
    """(t, m, table) for each distinct exponent, ascending."""
    ts = sorted(set(exponents))
    if ts and ts[0] < 2:
        raise ValueError(f"root exponents must be >= 2, got {ts[0]}")
    return [(t, *_power_residues(t)) for t in ts]


def _candidate_values(candidates) -> list[int]:
    """The candidates as a list, after checking that each is >= 1."""
    vals = list(candidates)
    if vals and min(vals) < 1:
        raise ValueError(f"candidates must be >= 1, got {min(vals)}")
    return vals


@lru_cache(maxsize=_MASK_CACHE_SIZE)
def _support_mask(v: int) -> int:
    """Coprimality mask of v >= 1: two values are coprime if their masks
    share no bit, and share a prime if they share a bit other than bit 0.

    Bit i >= 1 marks the i-th prime below 1000 (bit 1 is 2), set when it
    divides v; the assignment is fixed, so a value's mask does not depend
    on the list it comes with. Bit 0 marks a cofactor > 1 left
    after those primes are stripped: v has one exactly when v does not
    divide g^bits(v), g the product of its small primes. Two values that
    both have bit 0 need math.gcd to decide.
    """
    g = rest = math.gcd(v, SMALL_PRIMORIAL)
    mask = int(pow(g, v.bit_length(), v) != 0)
    for i, p in enumerate(small_primes(), 1):
        if rest == 1:
            break
        if rest % p == 0:
            mask |= 1 << i
            rest //= p
    return mask


def check_pair(
    x_candidates,
    r: int,
    y_candidates,
    s: int,
    t_set,
    *,
    allow_unit_root: bool = False,
) -> list[SolutionRecord]:
    """Check |x^r +- y^s| = z^t over two candidate lists, exactly.

    Candidates are ints >= 1 (ValueError otherwise). Records are normalized to
    sign_r * x^r + sign_s * y^s = z^t with positive x, y, z; roots z = 1 are
    dropped unless allow_unit_root (they belong to the unit-difference
    family, not to the search target).

    Two filters run before any exact work, and both only reject. Each x
    meets only the ys whose support mask (see _support_mask: a fixed bit per
    prime below 1000, bit 0 for a larger cofactor) shares no small prime
    with its own, a list built once per distinct x mask; each mask is
    computed once per value and process. math.gcd decides only pairs where
    both values keep a cofactor above the mask's primes. Each value
    |x^r +- y^s| of a coprime pair then meets, per t, a table of t-th power
    residues modulo a product of small primes q = 1 (mod t), looked up in
    place; a value that is not a t-th power residue is no t-th power. Every
    survivor gets the exact integer_nth_root and the record's exact
    re-verification. A root z needs no gcd check: a prime dividing z and x
    would divide y^s, and the pair is coprime.
    """
    xs = _candidate_values(x_candidates)
    ys = _candidate_values(y_candidates)
    sieves = _root_sieves(t_set)
    y_pows = [(y, y**s, _support_mask(y)) for y in ys]
    # The ys each x mask may be coprime to, grouped once per mask, each with
    # a flag for the pairs that only math.gcd can decide (both keep bit 0).
    partners: dict[int, list[tuple[int, int, int]]] = {}
    found: dict[tuple, SolutionRecord] = {}
    for x in xs:
        mx = _support_mask(x)
        if mx not in partners:
            partners[mx] = [(y, ys_, mx & my) for y, ys_, my in y_pows if mx & my <= 1]
        xr = x**r
        for y, ys_, undecided in partners[mx]:
            if undecided and math.gcd(x, y) != 1:
                continue
            for value in (xr + ys_, abs(xr - ys_)):
                if value == 0:
                    continue
                for t, m, table in sieves:
                    if not table[value % m]:
                        continue
                    z, exact = integer_nth_root(value, t)
                    if not exact or z == 1 and not allow_unit_root:
                        continue
                    sx, sy = (1, 1) if value == xr + ys_ else \
                        (1, -1) if xr > ys_ else (-1, 1)
                    rec = _mk_record(x, r, sx, y, s, sy, z, t)
                    found[rec.sort_key()] = rec
    return [found[k] for k in sorted(found)]


def check_power_tail(
    y_candidates,
    s: int,
    r_set,
    m_range,
    *,
    m_bounds: tuple[int, int],
) -> list[SolutionRecord]:
    """Check |y^s +- 2^m| = x^r over a candidate list and a 2-power window.

    This is the branch where the third coordinate is forced to be a pure
    power of two: z^t = 2^m with m in the window m_bounds, which must start
    at m >= 1 (ValueError otherwise, or for an m outside it). Exponents for
    the root side come from r_set; records store z = 2^(m/t) resolved over
    every admissible split t | m with t >= m_bounds[0].

    The box runs through check_pair with the powers 2^m as second list and
    r_set as root exponents, so it meets the same filters and exact root:
    even candidates share the factor 2 with 2^m and are masked out, and a
    root x = 1 is dropped. Each hit y^s +- 2^m = x^r is rewritten with 2^m
    on the right.
    """
    lo, hi = m_bounds
    if lo < 1:
        raise ValueError(f"2-power window [{lo},{hi}] must start at m >= 1")
    ms = list(m_range)
    for m in ms:
        if not lo <= m <= hi:
            raise ValueError(f"2-power exponent {m} outside window [{lo},{hi}]")
    out: dict[tuple, SolutionRecord] = {}
    for hit in check_pair(y_candidates, s, [1 << m for m in ms], 1, r_set):
        # hit: sign_r * y^s + sign_s * 2^m = x^r, with x = hit.z and r = hit.t.
        sx, sy = (1, -hit.sign_r) if hit.sign_s == 1 else (-1, hit.sign_r)
        m = hit.y.bit_length() - 1
        for t in range(lo, m + 1):
            if m % t == 0:
                rec = _mk_record(hit.z, hit.t, sx, hit.x, s, sy, 2 ** (m // t), t)
                out[rec.sort_key()] = rec
    return [out[k] for k in sorted(out)]


# ---------------------------------------------------------------------------
# Small-z scan for the (2,3,t) family.

# Pairwise-coprime moduli of the y-prefilter in small_z1_scan, each with a
# 0/1 table of its square residues and the cube of every residue.
_Y_SIEVE_MODULI = (64, 63, 65, 11, 17, 19)
_Y_SIEVE = tuple((m, _power_flags(2, m), tuple(i**3 % m for i in range(m)))
                 for m in _Y_SIEVE_MODULI)


def _square_residue_ys(k: int, lo: int, hi: int, sign: int) -> list[int]:
    """The y in [lo, hi] for which (sign*y)^3 + k is a square residue modulo
    every modulus in _Y_SIEVE_MODULI, ascending.

    This is necessary for (sign*y)^3 + k to be a square, so no y whose
    value is a square is dropped. Per modulus the test depends on y mod m
    only: one m-byte pattern, tiled over the range, and the tiles are ANDed
    as integers, so the work per y runs in C.
    """
    n = hi - lo + 1
    if n <= 0:
        return []
    mask = -1
    for m, squares, cubes in _Y_SIEVE:
        pattern = bytes(squares[(sign * cubes[(lo + j) % m] + k) % m]
                        for j in range(m))
        mask &= int.from_bytes((pattern * (n // m + 1))[:n], "big")
    # Survivors are rare, so jump between them with find (memchr) rather than
    # walk all n positions: the Python loop runs once per survivor.
    flags = mask.to_bytes(n, "big")
    out = []
    j = flags.find(1)
    while j >= 0:
        out.append(lo + j)
        j = flags.find(1, j + 1)
    return out


def small_z1_scan(
    z1_bound: int = 19,
    t_max: int = 9,
    height_bound: int = 2 * 10**12,
    *,
    y_window: int = 10**5,
    t_min: int = 7,
) -> list[SolutionRecord]:
    """Brute-force the tuples (d2 x^2, d3 y^3, z^t) with small z.

    Scans z whose coprime-to-6 part is below z1_bound, exponents
    t_min <= t <= t_max with z^t <= height_bound, plus the degenerate
    z = 1 target. The x^2 = y^3 +- z^t branches iterate y up to y_window
    (the scan is a bounded reproduction, not a completeness proof).
    Enlarging any bound can only grow the result set.

    Each branch x^2 = (+-y)^3 + k first builds a residue mask over its
    y-range: y survives only if (+-y)^3 + k is a square modulo each of
    a few small coprime moduli, which every square is. Each survivor
    coprime to z then gets the exact square test, and every record is
    re-verified by exact integer arithmetic, so the mask drops no solution.
    A root x needs no further check: with gcd(y, z) = 1, a prime dividing
    x and y, or x and z, would divide the third term too, and x = 0 would
    need y^3 = z^t with gcd(y, z) = 1, so y = z = 1, which no branch scans.
    """
    if z1_bound < 1 or t_max < t_min or height_bound < 1:
        raise ValueError("empty scan box")
    out: dict[tuple, SolutionRecord] = {}

    def coprime6_part(z: int) -> int:
        while z % 2 == 0:
            z //= 2
        while z % 3 == 0:
            z //= 3
        return z

    def scan(z, t, branches):
        # Each branch (k, lo, hi, sign, sx, sy) solves x^2 = (sign*y)^3 + k
        # for lo <= y <= hi and emits sx*x^2 + sy*y^3 = z^t.
        for k, lo, hi, sign, sx, sy in branches:
            for y in _square_residue_ys(k, lo, hi, sign):
                if math.gcd(y, z) == 1:
                    x, exact = is_perfect_square(sign * y**3 + k)
                    if exact:
                        out[(sx * x * x, sy * y**3, z**t)] = \
                            _mk_record(x, 2, sx, y, 3, sy, z, t)

    # Degenerate target z^t = 1: x^2 - y^3 = +-1 within the window.
    top = min(y_window, 10**4)
    scan(1, t_min, ((1, 2, top, 1, 1, -1), (-1, 2, top, 1, -1, 1)))

    zs = [z for z in range(2, int(height_bound ** (1 / t_min)) + 2)
          if coprime6_part(z) < z1_bound]
    for z in zs:
        for t in range(t_min, t_max + 1):
            zt = z**t
            if zt > height_bound:
                break
            root = integer_nth_root(zt, 3)[0]
            scan(z, t, (
                (zt, 1, root, -1, 1, 1),              # x^2 + y^3 = z^t
                (zt, 1, y_window, 1, 1, -1),          # x^2 - y^3 = z^t
                (-zt, root + 1, y_window, 1, -1, 1),  # y^3 - x^2 = z^t
            ))
    return [out[k] for k in sorted(out)]
