import math
from fractions import Fraction

import mpmath
import pytest

from gfekit import linlog, structure
from gfekit.linlog import LinLog, log_atom, log_bounds
from gfekit.ramification import A2_TABLES, a1_coefficient
from gfekit.structure import (
    GENERAL_EXPONENT_MAX,
    general_rl_cap,
    general_rl_product_cap,
    general_v2_sieve,
    general_x1_collapse_threshold,
    structure_profile,
    threers_collapse_threshold,
    threers_exponent_range,
    threers_lpart_candidates,
    threers_rl_product_cap,
    threers_v2_product_cap,
    threers_v3_sieve,
    twothree_admissible_t,
    xl_candidates,
)
from tests.conftest import count_interval_calls

# The published l-part classification for the general family.
PUBLISHED_XL = {
    (4, 11): (1, 3, 5),
    (4, 13): (1, 3),
    (4, 17): (1, 3),
    (5, 11): (1, 3),
    (5, 13): (1, 3),
    (6, 11): (1, 3),
}


def test_xl_classification_table():
    for (r, l), expected in PUBLISHED_XL.items():
        assert xl_candidates(r, l) == expected
    # everything else collapses to {1}
    for r in range(4, 30):
        for l in (11, 13, 17, 19, 23, 29, 31, 37, 41):
            if r % l == 0 or (r, l) in PUBLISHED_XL:
                continue
            assert xl_candidates(r, l) == (1,), (r, l)
    for r in (38, 69, 100, 303, 616):
        assert xl_candidates(r, 13) == (1,)


def test_xl_preconditions():
    with pytest.raises(ValueError):
        xl_candidates(3, 11)
    with pytest.raises(ValueError):
        xl_candidates(11, 11)
    with pytest.raises(ValueError):
        xl_candidates(4, 9)
    with pytest.raises(ValueError):
        xl_candidates(617, 11)


def test_general_rl_caps():
    assert general_rl_product_cap() == 37
    # pointwise caps never exceed the global product cap
    for r in (4, 5, 7, 13, 17, 34, 37, 100):
        for l in (11, 13, 17, 19):
            if r % l == 0:
                continue
            assert general_rl_cap(r, l) * r <= 40  # certified per-pair value
            assert general_rl_cap(r, l) <= 37 // r or general_rl_cap(r, l) * r <= 37 + 3
    assert general_rl_cap(38, 11) == 0
    assert general_rl_cap(4, 11) >= 1


def test_general_v2_sieve_reproduces_published_caps():
    assert general_v2_sieve() == (306, 303)


def test_exponent_sieves_settle_at_the_initial_precision(monkeypatch):
    # The per-prime vmax caps are small comparisons: no ladder step is needed,
    # so a ladder with no step above the initial precision must not change
    # (or break) the sieves.
    expected = general_v2_sieve(), threers_v3_sieve()
    monkeypatch.setattr(linlog, "MAX_PRECISION", linlog.DEFAULT_PRECISION)
    assert (general_v2_sieve.__wrapped__(), threers_v3_sieve.__wrapped__()) == expected


@pytest.mark.parametrize("p, k, x", [
    # float(x) / log p lands just below k: the estimate is k - 1.
    (2, 51, log_atom(2, 51)), (2, 55, log_atom(2, 55)), (3, 15, log_atom(3, 15)),
    # Just below an exact multiple the float loses the gap: the estimate is k + 1.
    (2, 10, log_atom(2, 11) - Fraction(1, 10**30)),
    (3, 7, log_atom(3, 8) - Fraction(1, 10**30)),
    (5, 4, log_atom(5, 5) - Fraction(1, 10**30)),
])
def test_floor_over_log_steps_from_a_float_estimate_that_is_off(p, k, x):
    assert abs(math.floor(float(x) / math.log(p)) - k) == 1
    assert structure._floor_over_log(p, x) == k


def test_general_x1_collapse():
    assert general_x1_collapse_threshold() == 69


def _general_collapse_ratio(r):
    """a2(p)/(r - 4) at the least comparison prime p not dividing r."""
    table = A2_TABLES["general-2tor"]
    p = next(p for p in sorted(table) if r % p)
    return Fraction(table[p], r - 4)


def _threers_collapse_ratio(r):
    """a2 at the third cube-table prime over 3r - a1_sup."""
    table = A2_TABLES["threers-2tor"]
    return table[sorted(table)[2]] / (3 * r - structure._A1_SUP_THREERS)


def test_screened_collapse_predicates_equal_the_certified_comparison():
    for r in range(5, GENERAL_EXPONENT_MAX + 1):
        q = _general_collapse_ratio(r)
        assert structure._below_log(q, 3) == (LinLog.of(q) < log_atom(3)), r
    for r in range(7, 668):
        q = _threers_collapse_ratio(r)
        assert structure._below_log(q, 5) == (LinLog.of(q) < log_atom(5)), r


@pytest.mark.parametrize("p", [2, 3, 5])
def test_below_log_screens_outside_the_window_and_falls_back_inside(p, monkeypatch):
    lo, hi = log_bounds(p)
    near = Fraction(math.log(p))
    assert lo < near < hi
    with mpmath.workprec(256):  # an oracle independent of linlog
        near_below = mpmath.mpf(near.numerator) / near.denominator < mpmath.log(p)
    calls = count_interval_calls(monkeypatch)
    assert structure._below_log(lo - Fraction(1, 10**12), p)
    assert not structure._below_log(hi + Fraction(1, 10**12), p)
    assert calls[0] == 0  # decided by the cached rationals alone
    for q, below in ((lo, True), (hi, False), (near, near_below)):
        before = calls[0]
        assert structure._below_log(q, p) is below, q
        assert calls[0] > before  # inside [lo, hi]: the certified fallback ran


def test_collapse_thresholds_need_almost_no_interval_evaluations(monkeypatch):
    # Warm what the thresholds read from other caches, so only their own
    # comparisons are counted (612 and 531 before the rational screen).
    threers_v3_sieve(), threers_rl_product_cap(), threers_v2_product_cap()
    log_bounds(3), log_bounds(5)
    calls = count_interval_calls(monkeypatch)
    assert general_x1_collapse_threshold.__wrapped__() == 69
    assert calls[0] <= 10
    calls[0] = 0
    assert threers_collapse_threshold.__wrapped__() == 138
    assert calls[0] <= 10


@pytest.mark.parametrize("kind", ["threers-2tor", "threers-mu6"])
def test_a1_sup_bounds_the_cube_tables(kind):
    # The smooth-collapse predicate is sound only if a1 < _A1_SUP_THREERS.
    for l in A2_TABLES[kind]:
        assert 6 < a1_coefficient(kind, l) < structure._A1_SUP_THREERS, l


def test_threers_caps():
    assert threers_v2_product_cap() == 667
    assert threers_v3_sieve() == (153, 137)
    assert threers_rl_product_cap() == 56
    assert threers_exponent_range() == (7, 667)
    assert threers_collapse_threshold() == 138


def test_threers_lparts_collapse_to_one():
    for r, s, l in ((7, 11, 17), (7, 11, 19), (8, 9, 17), (9, 11, 23),
                    (11, 13, 17), (20, 23, 29), (137, 139, 17)):
        xs, ys = threers_lpart_candidates(r, s, l)
        assert xs == (1,) and ys == (1,), (r, s, l)
    with pytest.raises(ValueError):
        threers_lpart_candidates(7, 8, 17)  # r = 7 forces s >= 11
    with pytest.raises(ValueError):
        threers_lpart_candidates(7, 11, 11)  # l >= 17 required


def test_twothree_admissible_exponents():
    ts = twothree_admissible_t()
    assert max(ts) == 121
    assert [t for t in ts if t >= 110] == [113, 121]
    assert all(t <= 109 or t in (113, 121) for t in ts)
    assert 11 in ts and 13 in ts and 109 in ts
    # solved-divisor sieve: these must be gone
    for t in (12, 14, 16, 18, 20, 30, 60, 70, 90, 105):
        assert t not in ts
    # 22 has no divisor among the solved exponents and stays
    assert 22 in ts


def test_structure_profile_general_spec_examples():
    prof = structure_profile("general", (4, 5, 7), 11)
    assert prof.variables["x"].lpart_candidates == (1, 3, 5)
    assert prof.variables["x"].smooth_log_cap is None  # exponent 4 at l = 11
    assert prof.variables["y"].lpart_candidates == (1, 3)
    assert prof.exponent_range == (4, 303)
    prof = structure_profile("general", (38, 39, 41), 11)
    assert prof.variables["x"].cap_el == 0
    assert prof.variables["x"].lpart_candidates == (1,)
    prof = structure_profile("general", (69, 71, 73), 11)
    assert prof.variables["x"].forced_power_of_two
    assert prof.variables["x"].cap_e2 == 306 // 69


def test_structure_profile_threers_spec_example():
    prof = structure_profile("threers", (7, 11), 17)
    assert prof.variables["y"].lpart_candidates == (1,)
    assert any("20s/7" in note for note in prof.variables["y"].notes)
    assert prof.exponent_range == (7, 667)
    assert prof.variables["x"].cap_e2 == 667 // 7
    assert prof.variables["x"].cap_e3 == 153 // 7
    assert prof.variables["x"].cap_el == 56 // 7
    prof = structure_profile("threers", (138, 139), 17)
    assert prof.variables["x"].forced_power_of_two


def test_structure_profile_twothree():
    prof = structure_profile("twothree", (113,), 11)
    var = prof.variables["z"]
    assert var.lpart_candidates == (1,)
    assert var.smooth_log_cap is not None  # z coprime-to-6 part below 35
    assert float(var.smooth_log_cap) < 3.56
    # Certified upper bound on log(35); pinned because it reaches printed caps.
    assert var.smooth_log_cap == Fraction(942581555928116534123, 265116534123000000000)
    with pytest.raises(ValueError):
        structure_profile("twothree", (110,), 11)  # sieved out


@pytest.mark.parametrize("family, exponents, tabled", [
    ("general", (4, 5, 7), "11, 13, 17, 19, 23"),
    ("threers", (7, 11), "17, 19, 23, 29, 31"),
])
def test_structure_profile_names_the_tabled_primes(family, exponents, tabled):
    with pytest.raises(ValueError, match=f"l=43 is not in the {family} a2 table; "
                                         f"tabled primes: {tabled}$"):
        structure_profile(family, exponents, 43)


def test_structure_profile_rejects_bad_l():
    with pytest.raises(ValueError):
        structure_profile("general", (4, 5, 11), 11)
