import ast
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import gfekit
from gfekit.arith import small_primes
from gfekit.linlog import LinLog, PrecisionExhausted, log_atom, log_bounds, log_of_int


def test_exact_zero_combination():
    assert (log_of_int(12) - log_atom(2, 2) - log_atom(3)).sign() == 0
    assert (log_of_int(360) - log_of_int(8) - log_of_int(45)).sign() == 0


def test_rational_fast_path():
    assert LinLog.of(Fraction(1, 3)).sign() == 1
    assert LinLog.of(0).sign() == 0
    assert (LinLog.of(2) - 5).sign() == -1


def test_certified_comparisons():
    assert log_atom(2) < log_atom(3)
    assert log_of_int(1024) > log_of_int(1000)
    assert log_of_int(2**30) < log_of_int(2**30 + 1)
    # 3^13 = 1594323 > 2^20 = 1048576: a close-ish comparison
    assert log_atom(3, 13) > log_atom(2, 20)


def test_tight_comparison_needs_precision():
    # log(2^1000001) vs log(2^1000000 * 2): equal representations cancel
    a = log_atom(2, 10**6 + 1)
    b = log_atom(2, 10**6) + log_atom(2)
    assert (a - b).sign() == 0
    # Hugely scaled but distinct combinations stay decidable.
    big = Fraction(10**30)
    assert (log_atom(2, big) - log_atom(3, big * 63092975 // 10**8)).sign() != 0


def test_algebra():
    x = log_of_int(6) * Fraction(1, 2) + 1
    y = (log_atom(2) + log_atom(3)) / 2 + 1
    assert (x - y).sign() == 0
    assert float(log_of_int(8)) == pytest.approx(2.0794415, rel=1e-6)


def test_division_and_scale():
    b2 = LinLog.of(10)
    b1 = Fraction(1, 2)
    assert (b2 / (1 - b1)).rational_value() == 20


def _small_linlog(const, coeffs):
    return LinLog.build(const, dict(zip((2, 3, 5, 7), coeffs)))


small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
exponent_values = st.one_of(
    st.fractions(min_value=-5, max_value=150, max_denominator=1000).map(LinLog.of),
    st.builds(_small_linlog, small_fracs, st.lists(small_fracs, max_size=4))
    .filter(lambda x: -5 <= float(x) <= 150),
)


@settings(max_examples=80, deadline=None)
@given(exponent_values)
def test_floor_exp_brackets_the_exponential(x):
    m = x.floor_exp()
    if x < 0:
        assert m == 0
    elif m < 10**12:
        assert log_of_int(m) <= x < log_of_int(m + 1)
    else:  # too large to factor quickly: compare with a 2000-bit evaluation
        with mpmath.workprec(2000):
            value = mpmath.mpf(x.const.numerator) / x.const.denominator
            for p, c in x.logs:
                value += mpmath.mpf(c.numerator) / c.denominator * mpmath.log(p)
            assert m == int(mpmath.floor(mpmath.exp(value)))


def test_floor_exp_exact_and_capped():
    assert log_of_int(35).floor_exp() == 35
    assert (log_of_int(35) - log_of_int(4)).floor_exp() == 8
    assert LinLog.of(10**4).floor_exp(at_most=50) == 50
    with pytest.raises(PrecisionExhausted):
        LinLog.of(10**4).floor_exp()


def test_log_bounds_bracket_prime_logs():
    assert log_bounds(1) == (0, 0)
    for p in small_primes()[:100]:
        lo, hi = log_bounds(p)
        assert LinLog.of(lo) < log_atom(p) < LinLog.of(hi)


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no proof step may use one.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(gfekit.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
