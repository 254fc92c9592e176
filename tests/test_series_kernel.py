"""The shared nested-sum kernel and the eval_series cache.

The oracles below are verbatim copies of the list-allocating loops that
eval_series and mzv_truncated used before they shared nested_sum.
mzv_truncated must match its oracle bit for bit (compared by repr,
which round-trips floats and shows the sign of zeros).  eval_series
chooses its own length within max_n, so its value must match the
oracle run to that length, terms_used, bit for bit, whether it is
computed or served from the cache; its bound is checked against mpmath
in test_series_honesty.py.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlog import hyperlog
from barlog.errors import DivergentTermError, DomainError
from barlog.harmonic import MzvResult, mzv_truncated
from barlog.hyperlog import (ONE, PARAM, EvalResult, HyperlogTerm,
                             eval_series)


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
        return MzvResult(1.0, 0.0, 0)
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
    return MzvResult(total, im / math.factorial(r - 1), max_n)


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
       max_n=st.one_of(st.integers(0, 300), st.just(100000)))
def test_eval_series_matches_reference_loop(t, main, param, max_n):
    z1, z2 = (main, param) if t.main_var == 1 else (param, main)
    hyperlog._series.cache_clear()
    # computed, then served from the cache
    first = assert_matches_reference_loop(t, z1, z2, max_n)
    assert assert_matches_reference_loop(t, z1, z2, max_n) is first


@settings(max_examples=100, deadline=None)
@given(first=st.integers(2, 4), rest=st.lists(st.integers(1, 4),
                                              max_size=3),
       max_n=st.integers(1, 300))
def test_mzv_truncated_matches_reference_loop(first, rest, max_n):
    index = (first, *rest)
    got = mzv_truncated(index, max_n)
    expected = reference_mzv_truncated(index, max_n)
    assert got == expected
    assert repr(got) == repr(expected)


def test_signed_zeros_share_cache_entries_exactly():
    t = HyperlogTerm(1, (2, 1), (PARAM, ONE))
    points = [(complex(-0.3, 0.0), 0.5), (complex(-0.3, -0.0), 0.5),
              (-0.3, complex(0.5, -0.0)), (-0.0, 0.5), (0.0, -0.0)]
    for order in (points, points[::-1]):
        hyperlog._series.cache_clear()
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
    hyperlog._series.cache_clear()
    a = eval_series(t, 0.3, 0.4, 50)
    b = eval_series(t, 0.3 + 0j, 0.4, max_n=50)
    assert a == b
    info = hyperlog._series.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 1, 4096)


def test_main_z2_is_main_z1_with_swapped_point():
    for index, letters in [((1,), (ONE,)), ((2, 1), (ONE, PARAM)),
                           ((1, 3, 2), (PARAM, PARAM, ONE))]:
        a = eval_series(HyperlogTerm(2, index, letters), 0.25, 0.6, 80)
        b = eval_series(HyperlogTerm(1, index, letters), 0.6, 0.25, 80)
        assert a == b
