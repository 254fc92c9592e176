"""The shared nested-sum kernel, the eval_series cache, and the
multiple zeta values built on it.

reference_eval_series is a verbatim copy of the list-allocating loop
that eval_series used before nested_sum.  eval_series chooses its own
length within max_n, so its value must match the oracle run to that
length, terms_used, bit for bit (compared by repr, which round-trips
floats and shows the sign of zeros), whether it is computed or served
from the cache; its bound is checked against mpmath in
test_series_honesty.py.

reference_mzv_truncated is the direct sum of zeta(k1, ..., kr) at
z = 1 with its integral tail bound, which mzv_truncated used before the
Hoelder convolution.  mzv_truncated is checked against a 50-digit
reference (mp_series.mp_mzv) and, independently, against that loop.
"""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlog import hyperlog
from barlog.errors import DivergentTermError, DomainError
from barlog.harmonic import all_indices, mzv_truncated
from barlog.hyperlog import (ONE, PARAM, EvalResult, HyperlogTerm,
                             eval_series)
from mp_series import DPS, mp_mzv, mzv_word


def reference_eval_series(t, z1, z2, max_n=100000):
    z = complex(z1 if t.main_var == 1 else z2)
    param = complex(z2 if t.main_var == 1 else z1)
    r = t.depth
    if r == 0:
        return EvalResult(complex(1.0), 0.0, 0)
    if abs(z) >= 1:
        raise DomainError(f"|z{t.main_var}| = {abs(z)} must be < 1")
    if abs(param) > 1 + 1e-15:
        raise DomainError(f"|parameter| = {abs(param)} must be <= 1")
    alphas = [1.0 + 0j if a == ONE else param for a in t.letters]
    ks = t.index
    T = [0.0 + 0j] * r
    C = [0.0 + 0j] * max(r - 1, 1)
    ar_pow = 1.0 + 0j
    z_pow = 1.0 + 0j
    total = 0.0 + 0j
    inner_max = 0.0
    for n in range(1, max_n + 1):
        newC = [alphas[j] * (C[j] + T[j + 1]) for j in range(r - 1)]
        ar_pow *= alphas[r - 1]
        newT = [0.0 + 0j] * r
        newT[r - 1] = ar_pow / n ** ks[r - 1]
        for j in range(r - 1):
            newT[j] = newC[j] / n ** ks[j]
        T = newT
        if r > 1:
            C = newC
        z_pow *= z
        total += z_pow * T[0]
        mag = abs(T[0])
        if mag > inner_max:
            inner_max = mag
    bound = inner_max * abs(z) ** (max_n + 1) / (1 - abs(z))
    return EvalResult(total, bound, max_n)


def reference_mzv_truncated(index, max_n=100000):
    index = tuple(index)
    r = len(index)
    if r == 0:
        return EvalResult(1.0, 0.0, 0)
    if index[0] < 2:
        raise DivergentTermError(
            f"zeta{index} diverges: leading entry must be >= 2")
    T = [0.0] * r
    C = [0.0] * max(r - 1, 1)
    total = 0.0
    for n in range(1, max_n + 1):
        newC = [C[q] + T[q + 1] for q in range(r - 1)]
        newT = [0.0] * r
        newT[r - 1] = 1.0 / n ** index[r - 1]
        for q in range(r - 1):
            newT[q] = newC[q] / n ** index[q]
        T = newT
        if r > 1:
            C = newC
        total += T[0]
    a = index[0] - 1
    im = 1.0 / (a * max_n ** a)
    for m in range(1, r):
        im = (1.0 + math.log(max_n)) ** m / (a * max_n ** a) + m / a * im
    return EvalResult(total, im / math.factorial(r - 1), max_n)


@st.composite
def terms(draw):
    depth = draw(st.integers(1, 4))
    index = tuple(draw(st.integers(1, 4)) for _ in range(depth))
    letters = tuple(draw(st.sampled_from((ONE, PARAM)))
                    for _ in range(depth))
    return HyperlogTerm(draw(st.sampled_from((1, 2))), index, letters)


def _coord(limit):
    return st.floats(-limit, limit, allow_nan=False)


def _point(limit):
    """A real or complex number of modulus below limit * sqrt(2)."""
    real = _coord(limit)
    return st.one_of(real, st.builds(complex, real, real))


# |main| <= 0.7 * sqrt(2) < 1 and |param| <= 1.
mains = st.one_of(_coord(0.99), _point(0.7))
params = st.one_of(_coord(1.0), _point(0.7),
                   st.sampled_from((1.0, -1.0, 1j, -1j)))


def assert_matches_reference_loop(t, z1, z2, max_n):
    """eval_series within max_n terms, its value bit for bit that of the
    reference loop run to terms_used; returns the result."""
    got = eval_series(t, z1, z2, max_n)
    assert got.terms_used <= max_n
    expected = reference_eval_series(t, z1, z2, got.terms_used)
    assert got.terms_used == expected.terms_used
    assert repr(got.value) == repr(expected.value)
    return got


@settings(max_examples=200, deadline=None)
@given(t=terms(), main=mains, param=params,
       max_n=st.one_of(st.integers(1, 300), st.just(100000)))
def test_eval_series_matches_reference_loop(t, main, param, max_n):
    z1, z2 = (main, param) if t.main_var == 1 else (param, main)
    hyperlog.eval_series.cache_clear()
    # computed, then served from the cache
    first = assert_matches_reference_loop(t, z1, z2, max_n)
    assert assert_matches_reference_loop(t, z1, z2, max_n) is first


# Every admissible index of weight <= 7: 63 of them.
ADMISSIBLE = [idx for w in range(2, 8) for idx in all_indices(w)
              if idx[0] >= 2]


def test_mzv_reference_matches_mpmath_and_closed_forms():
    # Each reference is within about 1e-29 of its value (its series'
    # tails, REF_TAIL each), and a sum below holds at most 32 of them.
    tol = 1e-27
    ref = {idx: mp_mzv(idx)[0] for idx in ADMISSIBLE}
    with mpmath.workdps(DPS):
        z = {k: mpmath.zeta(k) for k in range(2, 8)}
        for k in range(2, 8):
            assert abs(ref[(k,)] - z[k]) < tol
        assert abs(ref[(2, 1)] - z[3]) < tol
        assert abs(ref[(3, 2)] - (3 * z[2] * z[3] - 11 * z[5] / 2)) < tol
        assert abs(ref[(2, 3)] - (9 * z[5] / 2 - 2 * z[2] * z[3])) < tol
        # The sum theorem: the admissible indices of one weight and depth
        # add up to zeta(weight).
        for w in range(2, 8):
            for depth in range(1, w):
                total = sum(v for idx, v in ref.items()
                            if sum(idx) == w and len(idx) == depth)
                assert abs(total - z[w]) < tol, (w, depth)


def _mzv_error(got, index):
    """(|value - reference|, reference error), at 50 digits."""
    ref, ref_err = mp_mzv(index)
    with mpmath.workdps(DPS):
        return abs(mpmath.mpf(got.value) - ref), ref_err


@pytest.mark.parametrize("max_n", [1, 7, 40, 100000])
def test_mzv_bound_covers_the_error(max_n):
    for index in ADMISSIBLE:
        got = mzv_truncated(index, max_n)
        assert not math.isnan(got.truncation_bound), index
        assert got.terms_used <= 2 * (len(mzv_word(index)) + 1) * max_n
        error, ref_err = _mzv_error(got, index)
        assert error <= got.truncation_bound + ref_err, (index, max_n)


def test_mzv_at_the_default_cap_is_within_1e_12():
    for index in ADMISSIBLE:
        got = mzv_truncated(index)
        error, _ = _mzv_error(got, index)
        assert error <= 1e-12, index
        assert got.truncation_bound <= 1e-12, index


@settings(max_examples=60, deadline=None)
@given(index=st.sampled_from(ADMISSIBLE), n=st.integers(50, 3000))
def test_mzv_agrees_with_the_direct_loop(index, n):
    # From 50 terms on the loop's majorant (1 + ln t)^(r-1) / t^k1
    # decreases for every index of weight <= 7, so its integral bounds
    # the tail.  The loop's rounding is estimated as the series kernel's
    # is, its terms being positive.
    loop = reference_mzv_truncated(index, n)
    got = mzv_truncated(index)
    loop_rounding = hyperlog._rounding_estimate(len(index), n, loop.value)
    assert abs(got.value - loop.value) <= (
        loop.truncation_bound + loop_rounding + got.truncation_bound)


def test_times_keeps_an_infinite_bound():
    exact, loose = EvalResult(1.0, 0.0, 0), EvalResult(0.5, math.inf, 1)
    zero_loose = EvalResult(0.0, math.inf, 1)
    for a, b in ((exact, loose), (loose, exact), (exact, zero_loose),
                 (zero_loose, loose)):
        value, bound = a.times(b)
        assert bound == math.inf
        assert value == a.value * b.value
    assert EvalResult(2.0, 0.5, 3).times(EvalResult(-1j, 0.25, 4)) == (
        -2j, 2.0 * 0.25 + 1.0 * 0.5 + 0.5 * 0.25)


def test_signed_zeros_share_cache_entries_exactly():
    t = HyperlogTerm(1, (2, 1), (PARAM, ONE))
    points = [(complex(-0.3, 0.0), 0.5), (complex(-0.3, -0.0), 0.5),
              (-0.3, complex(0.5, -0.0)), (-0.0, 0.5), (0.0, -0.0)]
    for order in (points, points[::-1]):
        hyperlog.eval_series.cache_clear()
        for z1, z2 in order:
            assert_matches_reference_loop(t, z1, z2, 40)


def test_domain_error_on_every_repeated_call():
    t = HyperlogTerm(1, (2,), (PARAM,))
    for _ in range(3):
        with pytest.raises(DomainError):
            eval_series(t, 1.0, 0.5, 20)
        with pytest.raises(DomainError):
            eval_series(t, 0.5, 1.5, 20)
    assert_matches_reference_loop(t, 0.5, 0.5, 20)


def test_real_and_complex_points_share_an_entry():
    t = HyperlogTerm(1, (2, 1), (ONE, PARAM))
    hyperlog.eval_series.cache_clear()
    a = eval_series(t, 0.3, 0.4, 50)
    b = eval_series(t, 0.3 + 0j, 0.4, 50)
    assert a == b
    info = hyperlog.eval_series.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 1, 4096)


# Real coordinates as eval_series meets them: signs, signed zeros, and a
# parameter on the unit circle.
_real_mains = st.one_of(st.floats(-0.95, 0.95), st.sampled_from((0.0, -0.0)))
_real_params = st.one_of(st.floats(-1.0, 1.0),
                         st.sampled_from((0.0, -0.0, 1.0, -1.0)))


@settings(max_examples=1000, deadline=None)
@given(t=terms(), main=_real_mains, param=_real_params,
       max_n=st.integers(1, 2000))
def test_real_point_equals_the_same_point_as_complex(t, main, param, max_n):
    # Real coordinates are summed in floats, complex ones in complex
    # arithmetic; value, bound and length agree bit for bit.  0.3 and
    # 0.3+0j are one cache key, so the cache is emptied in between.
    z1, z2 = (main, param) if t.main_var == 1 else (param, main)
    hyperlog.eval_series.cache_clear()
    real = eval_series(t, z1, z2, max_n)
    hyperlog.eval_series.cache_clear()
    as_complex = eval_series(t, complex(z1), complex(z2), max_n)
    assert repr(real) == repr(as_complex)


def test_max_n_below_one_is_rejected():
    t = HyperlogTerm(1, (2, 1), (ONE, PARAM))
    for max_n in (0, -3, 2.5):
        with pytest.raises(ValueError, match="max_n must be an int >= 1"):
            eval_series(t, 0.3, 0.4, max_n)
    assert eval_series(t, 0.3, 0.4, 1).terms_used == 1


def test_main_z2_is_main_z1_with_swapped_point():
    for index, letters in [((1,), (ONE,)), ((2, 1), (ONE, PARAM)),
                           ((1, 3, 2), (PARAM, PARAM, ONE))]:
        a = eval_series(HyperlogTerm(2, index, letters), 0.25, 0.6, 80)
        b = eval_series(HyperlogTerm(1, index, letters), 0.6, 0.25, 80)
        assert a == b
