"""eval_series against mpmath at 50 digits.

Whatever length eval_series chooses, and whether or not its cap
binds, the distance from its value to the exact series must not exceed
its truncation_bound, which covers both the truncated tail and
floating-point rounding.  The reference (tests/mp_series.py) sums the
same recursion on the exact binary values of the float inputs.
"""

import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlog.hyperlog import ONE, PARAM, HyperlogTerm, eval_series
from mp_series import DPS, mp_series


@st.composite
def terms(draw):
    depth = draw(st.integers(1, 4))
    index = tuple(draw(st.integers(1, 4)) for _ in range(depth))
    letters = tuple(draw(st.sampled_from((ONE, PARAM)))
                    for _ in range(depth))
    return HyperlogTerm(draw(st.sampled_from((1, 2))), index, letters)


def _polar(radius):
    return st.builds(cmath.rect, radius, st.floats(0.0, 2 * math.pi))


# |z_main| <= 0.9 and |param| <= 1, real or complex.
mains = st.one_of(st.floats(-0.9, 0.9), _polar(st.floats(0.0, 0.9)))
params = st.one_of(st.floats(-1.0, 1.0), _polar(st.floats(0.0, 1.0)),
                   st.sampled_from((1.0, -1.0, 1j, -1j)))
# Caps from binding at once to the default.
caps = st.one_of(st.integers(1, 400), st.just(100000))


def _point(t, main, param):
    return (main, param) if t.main_var == 1 else (param, main)


def _error(got, t, z1, z2):
    """(|value - reference|, reference tail), at 50 digits."""
    ref, ref_tail = mp_series(t, z1, z2)
    with mpmath.workdps(DPS):
        return abs(mpmath.mpc(got.value) - ref), ref_tail


@settings(max_examples=150, deadline=None)
@given(t=terms(), main=mains, param=params, max_n=caps)
def test_bound_covers_the_error(t, main, param, max_n):
    z1, z2 = _point(t, main, param)
    got = eval_series(t, z1, z2, max_n)
    assert got.terms_used <= max_n
    error, ref_tail = _error(got, t, z1, z2)
    assert error <= got.truncation_bound + ref_tail


@settings(max_examples=30, deadline=None)
@given(t=terms(), angle=st.floats(0.0, 2 * math.pi), param=params)
def test_a_binding_cap_is_summed_in_full_and_stays_honest(t, angle, param):
    z1, z2 = _point(t, cmath.rect(0.95, angle), param)
    got = eval_series(t, z1, z2, 50)
    assert got.terms_used == 50
    assert math.isfinite(got.truncation_bound)
    error, ref_tail = _error(got, t, z1, z2)
    assert error <= got.truncation_bound + ref_tail


def test_default_length_is_adaptive():
    # At |z| <= 0.45 the series is exact to rounding within a hundred
    # terms, whatever the cap.
    t = HyperlogTerm(1, (2, 1, 1), (ONE, PARAM, PARAM))
    for z1 in (0.3, -0.45, 0.3 + 0.3j):
        got = eval_series(t, z1, 0.9, 100000)
        assert got.terms_used < 100
        assert 0 < got.truncation_bound < 1e-13


@pytest.mark.parametrize("max_n", [30, 40, 60, 100000])
def test_li2_at_three_tenths(max_n):
    # Before the bound covered rounding, Li2(0.3) stated 5.2e-22 at 40
    # terms and 0.0 at 100 000, while its error was 8.0e-17.
    got = eval_series(HyperlogTerm(1, (2,), (ONE,)), 0.3, 0.0, max_n)
    assert got.value.imag == 0.0
    assert got.terms_used < 30
    with mpmath.workdps(DPS):
        error = abs(mpmath.mpf(got.value.real)
                    - mpmath.polylog(2, mpmath.mpf(0.3)))
    assert error <= got.truncation_bound < 1e-13
