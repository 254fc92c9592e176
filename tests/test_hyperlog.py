import cmath
import math
import random
from fractions import Fraction

import pytest

from barlog.errors import (AlphabetError, ContourError, DivergentTermError,
                           DomainError)
from barlog.hyperlog import (COEFF_EVAL, ONE, PARAM, HyperlogTerm,
                             eval_quadrature, eval_series, partial_derivative,
                             term_to_word, within_bound, word_to_term)
from barlog.words import FORM_BASE, LIE_BASE, WordPoly


def test_word_term_round_trip():
    t = word_to_term(("z1", "z11", "z12_1"))
    assert t == HyperlogTerm(1, (2, 1), (ONE, PARAM))
    assert term_to_word(t) == ("z1", "z11", "z12_1")
    t = word_to_term(("z2", "z2", "z22"))
    assert t == HyperlogTerm(2, (3,), (ONE,))
    assert word_to_term(()) == HyperlogTerm(1, (), ())


def test_word_term_errors():
    with pytest.raises(DivergentTermError):
        word_to_term(("z11", "z1"))
    with pytest.raises(AlphabetError):
        word_to_term(("z1", "z22"))
    with pytest.raises(AlphabetError):
        word_to_term(("z12",))  # unprojected letter has no main variable


def test_series_classical_values():
    li1 = eval_series(HyperlogTerm(1, (1,), (ONE,)), 0.3, 0.0, 2000)
    assert abs(li1.value - (-math.log(0.7))) < 1e-14
    li2 = eval_series(HyperlogTerm(1, (2,), (ONE,)), 0.5, 0.0, 3000)
    assert abs(li2.value - (math.pi ** 2 / 12 - math.log(2) ** 2 / 2)) < 1e-13
    # param letter turns z^n into (z1*z2)^n at depth 1
    a = eval_series(HyperlogTerm(1, (2,), (PARAM,)), 0.3, 0.5, 2000)
    b = eval_series(HyperlogTerm(1, (2,), (ONE,)), 0.15, 0.0, 2000)
    assert abs(a.value - b.value) < 1e-14


def test_series_depth_two_identity():
    # Li_{1,1}(z) = log(1-z)^2 / 2.
    r = eval_series(HyperlogTerm(1, (1, 1), (ONE, ONE)), 0.4, 0.0, 4000)
    assert abs(r.value - math.log(0.6) ** 2 / 2) < 1e-13


def test_series_bound_is_honest():
    rng = random.Random(11)
    for _ in range(10):
        depth = rng.randrange(1, 4)
        index = tuple(rng.randrange(1, 4) for _ in range(depth))
        letters = tuple(rng.choice((ONE, PARAM)) for _ in range(depth))
        t = HyperlogTerm(1, index, letters)
        z1 = rng.uniform(0.1, 0.6)
        z2 = rng.uniform(-0.9, 0.9)
        # A cap of 10 binds at |z1| <= 0.6, so the short run is a real
        # truncation; the long one stops by itself.
        short = eval_series(t, z1, z2, 10)
        long = eval_series(t, z1, z2, 4000)
        assert short.terms_used == 10
        assert abs(short.value - long.value) <= short.truncation_bound * 1.01


def test_within_bound_rejects_non_finite_bounds():
    assert within_bound(1e-9, 0.0, 1e-8)
    assert within_bound(0.5, 0.5, 0.0)
    assert not within_bound(2e-8, 0.0, 1e-8)
    assert not within_bound(0.0, math.inf, 1e-8)
    assert not within_bound(0.0, math.nan, 1e-8)
    assert not within_bound(math.nan, 1.0, 1e-8)


def test_series_domain_errors():
    t = HyperlogTerm(1, (1,), (ONE,))
    with pytest.raises(DomainError):
        eval_series(t, 1.0, 0.0)
    with pytest.raises(DomainError):
        eval_series(HyperlogTerm(1, (1,), (PARAM,)), 0.3, 1.5)
    # |nan| < 1 and |nan| <= 1 are both false: a NaN coordinate or
    # parameter is rejected before any series runs.
    nan = complex(0.0, math.nan)
    for z, param in ((math.nan, 0.3), (0.3, math.nan), (nan, 0.3),
                     (0.3, nan)):
        with pytest.raises(DomainError):
            eval_series(HyperlogTerm(1, (2,), (PARAM,)), z, param)
    # unit parameter modulus is allowed
    r = eval_series(HyperlogTerm(1, (2,), (PARAM,)), 0.3, 1.0, 500)
    assert abs(r.value - eval_series(HyperlogTerm(1, (2,), (ONE,)),
                                     0.3, 0.0, 500).value) < 1e-14


def test_series_coordinates_must_be_numbers():
    # A str is not a number, though complex() would parse it; each bad
    # coordinate is named, and every number type still evaluates.
    t = word_to_term(("z11",))
    for z1, z2 in (("0.3", 0.4), (0.3, "0.4"), (None, 0.4), (0.3, None)):
        with pytest.raises(ValueError, match="each a number") as info:
            eval_series(t, z1, z2)
        assert repr((z1, z2)) in str(info.value)
    for z1 in (0, 0.3, 0.3 + 0j, Fraction(3, 10)):
        value = eval_series(t, z1, 0.4).value
        assert abs(value + cmath.log(1 - complex(z1))) < 1e-13


def test_series_complex_arguments():
    t = HyperlogTerm(1, (1,), (ONE,))
    z = 0.2 + 0.3j
    r = eval_series(t, z, 0.0, 3000)
    assert abs(r.value - (-cmath.log(1 - z))) < 1e-13


def mpl(index, i, j):
    """The main-z1 block-sorted term of Li_index(i, j; z1, z2)."""
    return HyperlogTerm(1, index, (ONE,) * i + (PARAM,) * j)


_BRANCH_CASES = [
    (mpl((1, 2), 0, 2), 1),   # i=0, k1=1, d/dz1
    (mpl((1, 2), 1, 1), 1),   # i>0, k1=1, d/dz1
    (mpl((2, 1), 1, 1), 1),   # k1>1, d/dz1
    (mpl((1, 2), 0, 2), 2),   # i=0, k1=1, d/dz2
    (mpl((2, 1), 1, 1), 2),   # k_{i+1}=1, d/dz2 (three terms)
    (mpl((1, 2), 1, 1), 2),   # k_{i+1}>1, d/dz2
    (mpl((2, 1), 2, 0), 2),   # j=0, d/dz2 vanishes
]


@pytest.mark.parametrize("m,var", _BRANCH_CASES)
def test_partial_derivative_matches_finite_differences(m, var):
    z1, z2 = 0.31, 0.37
    h = 1e-6

    def value(a, b):
        return eval_series(m, a, b, 4000).value

    if var == 1:
        fd = (value(z1 + h, z2) - value(z1 - h, z2)) / (2 * h)
    else:
        fd = (value(z1, z2 + h) - value(z1, z2 - h)) / (2 * h)
    an = 0.0
    for tag, c, mi in partial_derivative(m, var):
        base = eval_series(mi, z1, z2, 4000).value if mi.index else 1.0
        an += complex(c) * COEFF_EVAL[tag](z1, z2) * base
    assert abs(fd - an) < 5e-9


def test_quadrature_classical():
    p = WordPoly.monomial(FORM_BASE, ("z11",))
    v = eval_quadrature(p, [(0, 0), (0.5, 0)], tol=1e-12)
    assert abs(v - math.log(2)) < 1e-12
    p = WordPoly.monomial(FORM_BASE, ("z1", "z11"))
    v = eval_quadrature(p, [(0, 0), (0.5, 0)], tol=1e-12)
    assert abs(v - (math.pi ** 2 / 12 - math.log(2) ** 2 / 2)) < 1e-12


def test_quadrature_matches_series():
    word = ("z1", "z12_1", "z11")
    t = word_to_term(word)
    series = eval_series(t, 0.3, 0.4, 4000).value
    quad = eval_quadrature(
        WordPoly.monomial(("z1", "z11", "z12_1"), word),
        [(0, 0.4), (0.3, 0.4)], tol=1e-12)
    assert abs(series - quad) < 1e-10


def test_quadrature_divergent_from_origin():
    p = WordPoly.monomial(FORM_BASE, ("z11", "z1"))
    with pytest.raises(DivergentTermError):
        eval_quadrature(p, [(0, 0), (0.5, 0.2)])


def test_quadrature_contour_error():
    for word, path in [
            # path passes through z1 = 1, at t = 1/2 and between the
            # samples of a 33-point grid
            (("z11",), [(0.5, 0.1), (1.5, 0.1)]),
            (("z11",), [(0.5, 0.1), (1.51, 0.1)]),
            # singular product locus z1*z2 = 1
            (("z12",), [(0.5, 0.5), (2.0, 0.5)]),
            (("z12",), [(0.5, 0.5), (2.01, 0.5)]),
            # a singular start hides no pole further along the first leg
            (("z11",), [(0, 0), (2.02, 0)]),
            # the second leg lies on z1 = 0
            (("z1", "z11"), [(0.5, 0), (0, 0.2), (0, 0.5)])]:
        p = WordPoly.monomial(FORM_BASE, word)
        with pytest.raises(ContourError):
            eval_quadrature(p, path)
    # the first leg lies on z1 = 0
    with pytest.raises(ContourError,
                       match="segment 0 lies on the locus z1 = 0"):
        eval_quadrature(WordPoly.monomial(FORM_BASE, ("z1",)),
                        [(0, 0.2), (0, 0.5)])


def test_quadrature_path_needs_two_points():
    with pytest.raises(ValueError, match="at least two points"):
        eval_quadrature(WordPoly.monomial(FORM_BASE, ("z11",)), [(0.1, 0.2)])


def test_quadrature_rejects_a_letter_that_is_not_a_form_letter(monkeypatch):
    """A Lie letter has no pullback: AlphabetError names it before any
    panel is built."""
    from barlog import quadrature

    def boom(*args):
        raise AssertionError("panels built for an unknown letter")

    monkeypatch.setattr(quadrature, "_build_panels", boom)
    with pytest.raises(AlphabetError, match="'Z1'"):
        eval_quadrature(WordPoly(LIE_BASE, {("Z1",): 1}),
                        [(0.1, 0.1), (0.2, 0.2)])


def test_quadrature_axis_leg_is_fine():
    # riding the z2 = 0 axis is harmless for forms without z2 poles
    p = WordPoly.monomial(FORM_BASE, ("z11", "z11"))
    via_axis = eval_quadrature(p, [(0, 0), (0.5, 0), (0.5, 0.3)],
                               tol=1e-12)
    direct = eval_quadrature(p, [(0, 0), (0.5, 0.3)], tol=1e-12)
    assert abs(via_axis - (math.log(2) ** 2 / 2)) < 1e-11
    assert abs(via_axis - direct) < 1e-10


def test_partial_derivative_rejects_other_terms():
    for t in (HyperlogTerm(1, (), ()), HyperlogTerm(2, (1, 2), (ONE, PARAM)),
              HyperlogTerm(1, (1, 2), (PARAM, ONE))):
        with pytest.raises(ValueError, match="block-sorted"):
            partial_derivative(t, 1)
    with pytest.raises(ValueError, match="var must be 1 or 2"):
        partial_derivative(mpl((1, 2), 1, 1), 3)
