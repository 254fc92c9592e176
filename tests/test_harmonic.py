import math

import pytest

from barlog.errors import DivergentTermError
from barlog.harmonic import (all_indices, equivalence_check, eval_sum,
                             eval_tagged, index_harmonic,
                             closed_harmonic_expand, mpl_harmonic_expand,
                             mzv_truncated, prepare2, recursion_expand)


def test_index_harmonic_examples():
    assert index_harmonic((2,), (3,)) == {(2, 3): 1, (3, 2): 1, (5,): 1}
    assert index_harmonic((), (2, 1)) == {(2, 1): 1}
    # commutativity
    assert index_harmonic((2, 1), (3,)) == index_harmonic((3,), (2, 1))


def test_index_harmonic_weight_homogeneous():
    out = index_harmonic((2, 1), (1, 1))
    assert all(sum(idx) == 5 for idx in out)
    assert sum(out.values()) > 0


def test_closed_form_matches_recursion():
    idxs = all_indices(1) + all_indices(2) + all_indices(3)
    for k in idxs:
        for l in idxs:
            assert closed_harmonic_expand(k, l) == index_harmonic(k, l)


def test_mpl_harmonic_depth_one():
    s = mpl_harmonic_expand((1,), (1,))
    assert s == {
        ((1, 1), (1, 1), "12"): 1,
        ((1, 1), (1, 1), "21"): 1,
        ((2,), (0, 1), "prod"): 1,
    }
    s = mpl_harmonic_expand((2,), (3,))
    assert s == {
        ((2, 3), (1, 1), "12"): 1,
        ((3, 2), (1, 1), "21"): 1,
        ((5,), (0, 1), "prod"): 1,
    }


def test_prepare2_flip_only_case():
    s = prepare2((2,), (0, 1), 3)
    assert s == {((3, 2), (1, 1), "21"): 1}


def test_recursion_matches_expansion():
    report = equivalence_check(4)
    assert report and all(ok for _, _, ok in report)


def test_recursion_mismatch_detection():
    # sanity: the comparison is not vacuous
    assert recursion_expand((2,), (3,)) != recursion_expand((3,), (2,))


def test_numeric_harmonic_identity():
    for k, l in (((2,), (3,)), ((1, 1), (2,)), ((2, 1), (1, 1))):
        for z1, z2 in ((0.3, 0.4), (0.5, -0.5), (-0.35, 0.55)):
            lhs = (eval_tagged((k, (len(k), 0), "12"), z1, z2, 3000).value
                   * eval_tagged((l, (len(l), 0), "12"),
                                 z2, z1, 3000).value)
            rhs, bound = eval_sum(mpl_harmonic_expand(k, l), z1, z2, 3000)
            assert abs(lhs - rhs) <= 1e-10 + bound


def test_mzv_values():
    z2 = mzv_truncated((2,), 50000)
    assert abs(z2.value - math.pi ** 2 / 6) <= 1e-12 + z2.truncation_bound
    z4 = mzv_truncated((4,), 20000)
    assert abs(z4.value - math.pi ** 4 / 90) < 1e-12
    # Euler: zeta(2,1) = zeta(3), within honest tail bounds.
    a = mzv_truncated((2, 1), 50000)
    b = mzv_truncated((3,), 50000)
    assert abs(a.value - b.value) <= a.truncation_bound + b.truncation_bound


def test_mzv_divergent():
    with pytest.raises(DivergentTermError):
        mzv_truncated((1, 2))


def test_mzv_cap_below_one_is_rejected():
    for max_n in (0, -5):
        with pytest.raises(ValueError, match="max_n must be at least 1"):
            mzv_truncated((2,), max_n)


def test_non_positive_indices_are_rejected():
    # zeta(2, 0) diverges, and the tail majorant assumes every ki >= 1.
    for index in ((2, 0), (3, -1), (0,), (-2, 1)):
        with pytest.raises(ValueError, match="must be positive"):
            mzv_truncated(index, 100)
    for k, l in (((-1, 2), (1,)), ((0,), (1,)), ((2,), (1, 0))):
        for expand in (mpl_harmonic_expand, recursion_expand):
            with pytest.raises(ValueError, match="must be positive"):
                expand(k, l)

