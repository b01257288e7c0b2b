import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gfekit.search
from gfekit.arith import factor, integer_nth_root, is_perfect_square
from gfekit.campaign import _P1_WINDOW, build_p3_plan
from gfekit.search import (
    SolutionRecord,
    _power_residues,
    _expand_spec,
    _square_residue_ys,
    _support_mask,
    check_pair,
    check_power_tail,
    enumerate_candidates,
    small_z1_scan,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_enumerate_trivial_expansion():
    assert enumerate_candidates({"smooth": 1, "l": 11, "e2_cap": 2}) == [1, 2, 4]


def test_enumerate_lpart_example():
    spec = {"smooth": 1, "l": 11, "lparts": [1, 3, 5]}
    assert enumerate_candidates(spec) == [1, 3**11, 5**11]


def test_enumerate_every_slot_with_missing_caps_at_zero():
    assert enumerate_candidates({"smooth": 7, "l": 13}) == [7]
    spec = {"smooth": 5, "l": 11, "e2_cap": 1, "e3_cap": 1, "el_cap": 1,
            "lparts": [1, 3]}
    assert enumerate_candidates(spec) == sorted(
        5 * 2**e2 * 3**e3 * 11**el * lp**11
        for e2 in (0, 1) for e3 in (0, 1) for el in (0, 1) for lp in (1, 3))


def test_enumerate_values_spec_is_sorted_and_duplicate_free():
    assert enumerate_candidates({"values": [9, 2, "5", 9, 1]}) == [1, 2, 5, 9]


def nested_loop_expansion(spec):
    """The generator-spec expansion as one nested loop, without a cache."""
    l = spec["l"]
    out = set()
    for lp in spec.get("lparts", [1]):
        for el in range(spec.get("el_cap", 0) + 1):
            for e3 in range(spec.get("e3_cap", 0) + 1):
                for e2 in range(spec.get("e2_cap", 0) + 1):
                    out.add(spec["smooth"] * 2**e2 * 3**e3 * l**el * lp**l)
    return sorted(out)


@st.composite
def generator_specs(draw):
    l = draw(st.sampled_from((5, 7, 11, 13)))
    spec = {"smooth": draw(st.integers(min_value=1, max_value=60)), "l": l}
    for key in ("e2_cap", "e3_cap", "el_cap"):
        if draw(st.booleans()):
            spec[key] = draw(st.integers(min_value=0, max_value=l + 2))
    if draw(st.booleans()):
        # lp = 2, 3, 4, 9 or l puts lp^l among the 2-, 3- and l-powers above.
        spec["lparts"] = draw(st.lists(st.sampled_from((1, 2, 3, 4, 5, 9, l)),
                                       min_size=1, max_size=4))
    return spec


@given(generator_specs())
def test_enumerate_equals_the_nested_loop(spec):
    expected = nested_loop_expansion(spec)
    assert enumerate_candidates(spec) == expected
    assert enumerate_candidates(dict(spec)) == expected  # a cache hit


def test_enumerate_returns_a_fresh_list():
    spec = {"smooth": 5, "l": 11, "e2_cap": 3, "e3_cap": 2, "lparts": [1, 3]}
    first = enumerate_candidates(spec)
    expected = list(first)
    first.reverse()
    first.append(0)
    assert enumerate_candidates(spec) == expected
    assert enumerate_candidates(spec) is not enumerate_candidates(spec)
    # The spec, not the list it was first read from, is the cache key.
    spec["lparts"].append(5)
    assert enumerate_candidates(spec) == nested_loop_expansion(spec)


def test_enumerate_values_spec_is_not_cached():
    _expand_spec.cache_clear()
    spec = {"values": [4, 3, 4]}
    assert enumerate_candidates(spec) == [3, 4]
    spec["values"].append(1)
    assert enumerate_candidates(spec) == [1, 3, 4]
    info = _expand_spec.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


@pytest.mark.parametrize("module", ["gfekit.catalog", "gfekit.search"])
def test_catalog_and_search_load_no_log_code(module):
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in ('mpmath', 'gfekit.linlog', 'gfekit.structure')"
            " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "[]"


def naive_box_check(xs, r, ys, s, t_set, *, unit_root=False):
    found = set()
    for x in xs:
        for y in ys:
            if math.gcd(x, y) != 1:
                continue
            for value, sx, sy in ((x**r + y**s, 1, 1),
                                  (x**r - y**s, 1, -1),
                                  (y**s - x**r, -1, 1)):
                if value <= 0:
                    continue
                for t in t_set:
                    root, exact = integer_nth_root(value, t)
                    if exact and (root > 1 or unit_root) and math.gcd(x, root) == 1 \
                            and math.gcd(y, root) == 1:
                        found.add((x, r, sx, y, s, sy, root, t))
    return found


def test_check_pair_finds_known_identity():
    recs = check_pair(range(1, 20), 2, range(1, 20), 3, {9})
    assert [r.identity() for r in recs] == ["13^2 + 7^3 = 2^9"]
    recs = check_pair([1414], 3, [2213459], 2, {7})
    assert [r.identity() for r in recs] == ["1414^3 + 2213459^2 = 65^7"]


def test_check_pair_matches_naive_loop_on_random_boxes():
    rng = random.Random(2026)
    for _ in range(50):
        r = rng.randint(2, 6)
        s = rng.randint(2, 6)
        t_set = set(rng.sample(range(2, 12), rng.randint(1, 3)))
        nx = rng.randint(5, 100)
        ny = rng.randint(5, 100)
        xs = rng.sample(range(1, 500), nx)
        ys = rng.sample(range(1, 500), ny)
        assert nx * ny <= 10**4
        got = {(rec.x, rec.r, rec.sign_r, rec.y, rec.s, rec.sign_s, rec.z, rec.t)
               for rec in check_pair(xs, r, ys, s, t_set)}
        assert got == naive_box_check(xs, r, ys, s, t_set)


def test_check_pair_records_verify():
    for rec in check_pair(range(1, 50), 2, range(1, 50), 3, {7, 8, 9}):
        assert rec.verify()
        round_trip = SolutionRecord.from_dict(rec.as_dict())
        assert round_trip == rec


def test_record_rejects_corruption():
    rec = check_pair(range(1, 20), 2, range(1, 20), 3, {9})[0]
    bad = rec.as_dict()
    bad["x"] += 1
    with pytest.raises(ValueError):
        SolutionRecord.from_dict(bad)


def test_check_power_tail():
    # 71^2 - 17^3 = 2^7 is outside the window; use a synthetic hit instead:
    # y = 1: |1 +- 2^m| is an x^r only for trivial x, which is filtered.
    recs = check_power_tail([1], 5, {4}, range(70, 75), m_bounds=_P1_WINDOW)
    assert recs == []
    with pytest.raises(ValueError):
        check_power_tail([1], 5, {4}, range(10, 12), m_bounds=_P1_WINDOW)
    # even y is rejected by coprimality
    assert check_power_tail([2], 5, {4}, range(70, 75), m_bounds=_P1_WINDOW) == []


def test_check_power_tail_finds_planted_power():
    # 3^4 + 2^70 is not a 4th power, but 2^72 - y^s = x^r has planted cases:
    # choose y with y^3 = 2^72 - x^4 impossible; instead verify the generic
    # contract on a constructed identity: x^4 = 2^76 + 81 has no root, so
    # the scan over a box stays empty and every emitted record verifies.
    recs = check_power_tail(range(1, 40, 2), 3, {2, 4, 5}, range(70, 80),
                            m_bounds=_P1_WINDOW)
    for rec in recs:
        assert rec.verify()
        assert rec.z == 2 ** (rec.z.bit_length() - 1)  # z is a 2-power


# One planted identity per sign pattern, in a lowered 2-power window.
@pytest.mark.parametrize("y, s, x, r, m, signs", [
    (1, 3, 3, 2, 3, (1, -1)),    # 3^2 - 1^3 = 2^3
    (5, 2, 3, 2, 4, (-1, 1)),    # 5^2 - 3^2 = 2^4
    (7, 3, 13, 2, 9, (1, 1)),    # 13^2 + 7^3 = 2^9
])
def test_check_power_tail_signs(y, s, x, r, m, signs):
    recs = check_power_tail([y], s, {r}, [m], m_bounds=(1, 20))
    assert [(rec.x, rec.y, (rec.sign_r, rec.sign_s)) for rec in recs] \
        == [(x, y, signs)] * len(recs)
    assert sorted(rec.t for rec in recs) == [t for t in range(1, m + 1) if m % t == 0]
    assert all(rec.verify() for rec in recs)


def _records(recs):
    return {(rec.x, rec.r, rec.sign_r, rec.y, rec.s, rec.sign_s, rec.z, rec.t)
            for rec in recs}


@pytest.mark.parametrize("xs, ys", [
    ([0], [1, 3]),
    ([-5, 2], [1, 3]),
    ([2, 3], [1, 0]),
])
def test_check_pair_rejects_nonpositive_candidates(xs, ys):
    with pytest.raises(ValueError):
        check_pair(xs, 2, ys, 3, {2, 3}, allow_unit_root=True)


@pytest.mark.parametrize("ys", [[0], [3, -1]])
def test_check_power_tail_rejects_nonpositive_candidates(ys):
    with pytest.raises(ValueError):
        check_power_tail(ys, 5, {4}, range(70, 75), m_bounds=_P1_WINDOW)


@pytest.mark.parametrize("m_bounds, m_range", [((0, 3), range(0, 4)),
                                               ((-2, 3), range(1, 4))])
def test_power_tail_window_must_start_at_one(m_bounds, m_range):
    lo, hi = m_bounds
    with pytest.raises(ValueError, match=rf"window \[{lo},{hi}\] must start at m >= 1"):
        check_power_tail([1, 3, 5], 3, {2}, m_range, m_bounds=m_bounds)


def test_root_exponents_below_two_are_rejected():
    with pytest.raises(ValueError):
        check_pair([2], 2, [3], 3, {1, 2})
    with pytest.raises(ValueError):
        check_power_tail([3], 3, {0}, range(70, 71), m_bounds=_P1_WINDOW)


# Candidates with prime factors >= 1000, which only the gcd fallback of the
# coprimality masks can decide: 1009*2 and 1009*3 share only 1009, and the
# legs of 8072^2 + 1018065^2 = 1018097^2 (2^3*1009 and 3*5*67*1013) share none.
_LARGE_PRIME_BOX = ([1009 * k for k in range(1, 40)] + list(range(1, 40))
                    + [1013 * 1009, 1013 * 3, 1013**2, 1009**2 * 7, 8072, 1018065])


@pytest.mark.parametrize("r, s, t_set", [
    (2, 2, {2, 4}),          # even t: 7^2 + 24^2 = 5^4 and Pythagorean triples
    (2, 3, {2, 3, 9}),
    (3, 2, {5, 6, 7}),
])
def test_check_pair_equals_naive_with_large_primes(r, s, t_set):
    xs = ys = _LARGE_PRIME_BOX
    expected = naive_box_check(xs, r, ys, s, t_set)
    assert _records(check_pair(xs, r, ys, s, t_set)) == expected
    assert expected
    if t_set == {2, 4}:
        assert (8072, 2, 1, 1018065, 2, 1, 1018097, 2) in expected


@pytest.mark.parametrize("xs, ys", [
    (_LARGE_PRIME_BOX, _LARGE_PRIME_BOX),
    (_LARGE_PRIME_BOX[::3] + [2 * 997], [3 * 5 * 7 * 997, 1, 2, 8072, 1018065, 1009 * 1013]),
    ([1], [1]),
])
def test_support_masks_decide_coprimality(xs, ys):
    # Each value's mask comes from its own call, so masking the lists in
    # either order, from a cold cache, gives the same masks. Bit 0 marks a
    # prime factor >= 1000, bit i >= 1 the i-th prime below 1000: disjoint
    # masks mean coprime, and the shared bits >= 1 are the shared small primes.
    primes = [p for p in range(2, 1000) if all(p % d for d in range(2, p))]
    masks = []
    for order in (xs + ys, ys[::-1] + xs[::-1]):
        _support_mask.cache_clear()
        masks.append({v: _support_mask(v) for v in order})
    assert masks[0] == masks[1]
    mask = masks[0]
    for v, mv in mask.items():
        assert mv & 1 == any(p >= 1000 for p in factor(v).primes()), v
    for x in xs:
        for y in ys:
            g = math.gcd(x, y)
            shared = mask[x] & mask[y]
            if shared == 0:
                assert g == 1, (x, y)
            assert {p for i, p in enumerate(primes, 1) if shared >> i & 1} \
                == {p for p in primes if g % p == 0}, (x, y)


def test_check_pair_equals_naive_when_t_has_no_residue_prime():
    # No prime q < 1000 has q = 1 (mod 997): the table is trivial and every
    # coprime value goes to the exact root. 3^2 - 2^3 = 1^997 is the only
    # record, and it needs the unit root.
    assert _power_residues(997) == (1, b"\x01")
    box = list(range(1, 30))
    got = _records(check_pair(box, 2, box, 3, {997, 2}, allow_unit_root=True))
    assert got == naive_box_check(box, 2, box, 3, {997, 2}, unit_root=True)
    assert (3, 2, 1, 2, 3, -1, 1, 997) in got
    assert _records(check_pair(box, 2, box, 3, {997})) == set()


@pytest.mark.parametrize("r, s, t_set", [
    (2, 3, {2, 3}), (2, 2, {2, 3, 4}), (4, 5, {2, 3}), (2, 5, {2, 3, 7}),
])
def test_check_pair_equals_naive_on_plan_shaped_box(r, s, t_set):
    # values 2^a 3^b 7^c, as a campaign spec expands them
    vals = enumerate_candidates({"smooth": 1, "l": 7, "e2_cap": 6, "e3_cap": 6,
                         "el_cap": 2, "lparts": [1]})
    expected = naive_box_check(vals, r, vals, s, t_set)
    assert expected
    assert _records(check_pair(vals, r, vals, s, t_set)) == expected


def test_check_pair_equals_naive_on_a_p3_task():
    params = build_p3_plan(4, 5, 5, box_limit=20).tasks[0].params
    xs, ys = enumerate_candidates(params["a"]), enumerate_candidates(params["b"])
    got = _records(check_pair(xs, params["r"], ys, params["s"], params["t_set"]))
    assert got == naive_box_check(xs, params["r"], ys, params["s"], params["t_set"])


def brute_power_tail(ys, s, r_set, m_range, m_bounds):
    """check_power_tail's records by trying every sign pattern of every
    (y, m, r, t) with z = 2^(m/t), without residue tables."""
    lo, _ = m_bounds
    found = set()
    for y in ys:
        if y % 2 == 0:
            continue
        for m in m_range:
            for value in (y**s + 2**m, abs(y**s - 2**m)):
                for r in r_set:
                    if value == 0:
                        continue
                    x, exact = integer_nth_root(value, r)
                    if not exact or x % 2 == 0 or x == 1:
                        continue
                    for t in range(lo, m + 1):
                        if m % t:
                            continue
                        for sx in (1, -1):
                            for sy in (1, -1):
                                rec = SolutionRecord(x, y, 2 ** (m // t), r, s, t, sx, sy)
                                if rec.verify():
                                    found.add((x, r, sx, y, s, sy, rec.z, t))
    return found


@pytest.mark.parametrize("s, r_set", [(3, {2}), (2, {3, 5, 7}), (5, {2, 4}), (4, {2, 3})])
def test_check_power_tail_equals_brute_force(s, r_set):
    ys, m_bounds = range(1, 200), (3, 24)
    m_range = range(m_bounds[0], m_bounds[1] + 1)
    expected = brute_power_tail(ys, s, r_set, m_range, m_bounds)
    got = _records(check_power_tail(ys, s, r_set, m_range, m_bounds=m_bounds))
    assert got == expected
    assert expected  # the window has solutions to lose
    if s == 3:
        assert (71, 2, 1, 17, 3, -1, 2, 7) in got   # 71^2 - 17^3 = 2^7


@pytest.mark.parametrize("t, m", [(2, 3 * 5 * 7 * 11 * 13), (3, 7 * 13 * 19 * 31),
                                  (4, 5 * 13 * 17 * 29), (5, 11 * 31 * 41),
                                  (7, 29 * 43), (1, 1), (997, 1)])
def test_power_residue_modulus_and_table(t, m):
    got_m, table = _power_residues(t)
    assert got_m == m and len(table) == m
    qs = [q for q in range(2, 1000) if m % q == 0 and all(q % d for d in range(2, q))]
    powers = {q: {pow(i, t, q) for i in range(q)} for q in qs}
    assert list(table) == [int(all(j % q in powers[q] for q in qs)) for j in range(m)]


@given(st.integers(min_value=1, max_value=10**30), st.integers(min_value=2, max_value=40))
def test_power_residue_table_keeps_every_power(v, t):
    m, table = _power_residues(t)
    assert table[pow(v, t, m)]


def test_small_z1_scan_reduced_boxes():
    # unit coprime-to-6 part only: the three 2-power tuples survive
    recs = small_z1_scan(z1_bound=2, t_max=9, height_bound=10**6, y_window=200)
    vals = {(r.sign_r * r.x**2, r.sign_s * r.y**3, r.z**r.t) for r in recs}
    assert (9, -8, 1) in vals
    assert (5041, -4913, 128) in vals
    assert (169, 343, 512) in vals
    assert all(v[2] in (1, 128, 512) for v in vals)
    # height cap 10^3 drops nothing below but nothing above either
    recs = small_z1_scan(z1_bound=19, t_max=9, height_bound=10**3, y_window=200)
    zt = {r.z**r.t for r in recs}
    assert zt == {1, 128, 512}


def test_small_z1_scan_monotone():
    small = small_z1_scan(z1_bound=2, t_max=8, height_bound=10**4, y_window=100)
    large = small_z1_scan(z1_bound=12, t_max=9, height_bound=10**5, y_window=200)
    small_vals = {(r.sign_r * r.x**2, r.sign_s * r.y**3, r.z**r.t) for r in small}
    large_vals = {(r.sign_r * r.x**2, r.sign_s * r.y**3, r.z**r.t) for r in large}
    assert small_vals <= large_vals


def _exact_sqrt(n: int) -> int | None:
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def brute_small_z1_scan(z1_bound, t_max, height_bound, y_window, t_min=7):
    """small_z1_scan's box, every y tried with a plain isqrt and no residue
    filter: {(sign_r x^2, sign_s y^3, z^t): identity}, later (z, t) winning
    a repeated key as in the scan."""
    out = {}

    def emit(x, sx, y, sy, z, t):
        if x >= 1 and math.gcd(x, y) == math.gcd(x, z) == math.gcd(y, z) == 1:
            rec = SolutionRecord(x=x, y=y, z=z, r=2, s=3, t=t, sign_r=sx, sign_s=sy)
            assert rec.verify()
            out[(sx * x * x, sy * y**3, z**t)] = rec.identity()

    for y in range(2, min(y_window, 10**4) + 1):
        for k, sx, sy in ((1, 1, -1), (-1, -1, 1)):
            x = _exact_sqrt(y**3 + k)
            if x is not None:
                emit(x, sx, y, sy, 1, t_min)
    for z in range(2, int(height_bound ** (1 / t_min)) + 2):
        odd6 = z
        while odd6 % 2 == 0:
            odd6 //= 2
        while odd6 % 3 == 0:
            odd6 //= 3
        if odd6 >= z1_bound:
            continue
        for t in range(t_min, t_max + 1):
            zt = z**t
            if zt > height_bound:
                break
            y = 1
            while y**3 <= zt:
                x = _exact_sqrt(zt - y**3)
                if x is not None:
                    emit(x, 1, y, 1, z, t)
                y += 1
            for y in range(1, y_window + 1):
                x = _exact_sqrt(y**3 + zt)
                if x is not None:
                    emit(x, 1, y, -1, z, t)
                x = _exact_sqrt(y**3 - zt)
                if x is not None:
                    emit(x, -1, y, 1, z, t)
    return out


@pytest.mark.parametrize("box", [
    # y_window a multiple of none of the moduli 64, 63, 65, 11, 17, 19
    dict(z1_bound=19, t_max=9, height_bound=10**7, y_window=997),
    dict(z1_bound=12, t_max=6, height_bound=10**6, y_window=1201, t_min=3),
    # y_window below the cube root of most z^t: their y^3 - z^t branch is empty
    dict(z1_bound=8, t_max=9, height_bound=10**8, y_window=40, t_min=5),
    # z^t a cube (2^9 = 8^3, and every t = 9, 6, 3), the cube root itself a y
    dict(z1_bound=5, t_max=9, height_bound=2**9, y_window=300, t_min=3),
    dict(z1_bound=2, t_max=9, height_bound=10**9, y_window=600, t_min=9),
])
def test_small_z1_scan_equals_brute_force(box):
    expected = brute_small_z1_scan(**box)
    got = {(r.sign_r * r.x**2, r.sign_s * r.y**3, r.z**r.t): r.identity()
           for r in small_z1_scan(**box)}
    assert got == expected
    assert expected  # the box has solutions to lose


def test_small_z1_scan_default_box_square_test_count(monkeypatch):
    # The y-sieve leaves 33,716 values of the default box to the exact square
    # test; a weaker sieve would send more.
    asked = []
    monkeypatch.setattr(gfekit.search, "is_perfect_square",
                        lambda n: asked.append(n) or is_perfect_square(n))
    assert len(small_z1_scan()) == 5
    assert len(asked) == 33716


@given(st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=1, max_value=10**5),
       st.sampled_from((1, -1)),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=-10**12, max_value=10**12))
def test_square_residue_ys_keeps_every_square(x, y0, sign, below, above, shift):
    # k plants the square x^2 at y0; a shifted k tries an arbitrary one
    lo, hi = max(1, y0 - below), y0 + above
    for k in (x * x - (sign * y0) ** 3, x * x - (sign * y0) ** 3 + shift):
        kept = _square_residue_ys(k, lo, hi, sign)
        assert kept == sorted(set(kept)) and all(lo <= y <= hi for y in kept)
        squares = [y for y in range(lo, hi + 1)
                   if _exact_sqrt((sign * y) ** 3 + k) is not None]
        assert set(squares) <= set(kept)
    assert y0 in _square_residue_ys(x * x - (sign * y0) ** 3, lo, hi, sign)
    assert _square_residue_ys(0, hi + 1, hi, sign) == []


@settings(max_examples=40)
@given(st.integers(min_value=-10**13, max_value=10**13),
       st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=0, max_value=1500),
       st.sampled_from((1, -1)),
       st.sampled_from((1, 2, 6, 12, 13, 17, 23, 35, 5 * 7 * 11 * 13)))
def test_square_residue_ys_are_exactly_the_residue_survivors(k, lo, size, sign, coprime_to):
    # Oracle: each y tested on its own against every modulus of the sieve.
    moduli = (64, 63, 65, 11, 17, 19)
    squares = {m: {i * i % m for i in range(m)} for m in moduli}
    expected = [y for y in range(lo, lo + size)
                if all(((sign * y) ** 3 + k) % m in squares[m]
                       and math.gcd(math.gcd(y, coprime_to), m) == 1 for m in moduli)]
    # Every end of the range within two bytes of the last, since the sieve
    # packs eight y to a byte.
    for hi in range(max(lo - 1, lo + size - 17), lo + size):
        kept = _square_residue_ys(k, lo, hi, sign, coprime_to)
        assert kept == [y for y in expected if y <= hi], hi
