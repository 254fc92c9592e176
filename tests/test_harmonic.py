import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlog.errors import DivergentTermError, DomainError
from barlog.harmonic import (_tag_term, eval_sum, eval_tagged,
                             index_harmonic, closed_harmonic_expand,
                             mpl_harmonic_expand, mzv_truncated, prepare2,
                             recursion_expand)
from barlog.hyperlog import ONE, PARAM, EvalResult, HyperlogTerm, eval_series
from indices import compositions, index_pairs


def test_index_harmonic_examples():
    assert index_harmonic((2,), (3,)) == {(2, 3): 1, (3, 2): 1, (5,): 1}
    assert index_harmonic((), (2, 1)) == {(2, 1): 1}
    # commutativity
    assert index_harmonic((2, 1), (3,)) == index_harmonic((3,), (2, 1))


def test_index_harmonic_weight_homogeneous():
    out = index_harmonic((2, 1), (1, 1))
    assert all(sum(idx) == 5 for idx in out)
    assert sum(out.values()) > 0


def test_index_entries_below_one_are_rejected():
    for expand in (index_harmonic, closed_harmonic_expand):
        for k, l in (((0,), (1,)), ((0,), (-1,)), ((2, 1), (1, -3)),
                     ((), (0,))):
            with pytest.raises(ValueError, match="must be positive"):
                expand(k, l)


def test_closed_form_matches_recursion():
    idxs = compositions(1) + compositions(2) + compositions(3)
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
    pairs = index_pairs(5)
    assert len(pairs) == 49
    for k, l in pairs:
        assert mpl_harmonic_expand(k, l) == recursion_expand(k, l), (k, l)


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


def test_a_tag_reads_as_its_block_sorted_term():
    assert _tag_term(((1, 2), (1, 1), "12")) == HyperlogTerm(
        1, (1, 2), (ONE, PARAM))
    assert _tag_term(((1, 2), (1, 1), "21")) == HyperlogTerm(
        2, (1, 2), (ONE, PARAM))
    assert _tag_term(((2, 1), (0, 2), "prod")) == HyperlogTerm(
        1, (2, 1), (PARAM, PARAM))
    assert _tag_term(((1, 2), (1, 1), "12")).weight == 3


def test_a_tag_with_bad_entries_or_numbering_is_rejected():
    for index in ((0,), (2, -1), (1, 0, 2)):
        with pytest.raises(ValueError, match="must be positive"):
            eval_tagged((index, (len(index), 0), "12"), 0.3, 0.4)
    for index, numbering in (((1, 2), (1, 0)), ((1,), (-1, 2)),
                             ((0,), (1, 0))):
        with pytest.raises(ValueError):
            eval_tagged((index, numbering, "12"), 0.3, 0.4)


def test_an_unknown_orientation_is_rejected():
    tag = ((1,), (1, 0), "bogus")
    with pytest.raises(ValueError, match="unknown orientation 'bogus'"):
        eval_tagged(tag, 0.3, 0.4)
    with pytest.raises(ValueError, match="unknown orientation 'bogus'"):
        eval_sum({tag: 1}, 0.3, 0.4)


def test_a_21_tag_out_of_range_names_its_coordinate():
    # Li(1, 0; z2, z1) = Li_2(z2) needs |z2| < 1 and |z1| <= 1.
    for z1, z2, message in ((0.3, 1.0, "|z2| = 1.0 must be < 1"),
                            (1.5, 0.3, "|z1| = 1.5 must be <= 1")):
        with pytest.raises(DomainError) as raised:
            eval_sum({((2,), (1, 0), "21"): 1}, z1, z2)
        assert str(raised.value) == message


_PAIRS = index_pairs(6)
_REAL = st.floats(-0.9, 0.9)
_POINT = st.one_of(
    st.tuples(_REAL, _REAL),
    st.tuples(st.complex_numbers(max_magnitude=0.9),
              st.complex_numbers(max_magnitude=0.9)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_PAIRS), _POINT, st.integers(1, 2000))
def test_a_tag_evaluates_to_the_function_it_names(pair, point, max_n):
    # Li(i, j; z1, z2) for "12" and "prod", Li(i, j; z2, z1) for "21",
    # each as the main-z1 term at the point in that order: the same
    # bits as the tag's own term.  The cache is emptied between the two
    # evaluations, so neither can return the other's result.
    z1, z2 = point
    for tag in mpl_harmonic_expand(*pair):
        index, (i, j), orientation = tag
        term = HyperlogTerm(1, index, (ONE,) * i + (PARAM,) * j)
        at = (z2, z1) if orientation == "21" else (z1, z2)
        eval_series.cache_clear()
        expected = eval_series(term, *at, max_n)
        eval_series.cache_clear()
        assert repr(eval_tagged(tag, z1, z2, max_n)) == repr(expected), tag


def test_mzv_values():
    z2 = mzv_truncated((2,), 50000)
    assert abs(z2.value - math.pi ** 2 / 6) <= 1e-12 + z2.truncation_bound
    z4 = mzv_truncated((4,), 20000)
    assert abs(z4.value - math.pi ** 4 / 90) < 1e-12
    # Euler: zeta(2,1) = zeta(3), within honest tail bounds.
    a = mzv_truncated((2, 1), 50000)
    b = mzv_truncated((3,), 50000)
    assert abs(a.value - b.value) <= a.truncation_bound + b.truncation_bound


def test_empty_indices():
    # The empty index is the empty sum: zeta() = 1, and Li_() = 1 is
    # the unit of the harmonic product; a 2MPL needs both indices.
    assert mzv_truncated(()) == EvalResult(1.0, 0.0, 0)
    assert closed_harmonic_expand((), (1, 2)) == {(1, 2): 1}
    with pytest.raises(ValueError, match="nonempty"):
        mpl_harmonic_expand((), (1,))


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

