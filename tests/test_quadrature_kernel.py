"""The plain-Python quadrature kernel against a numpy per-panel loop.

reference_build_panels and reference_word_integral are the numpy code
that eval_quadrature once ran panel by panel; they read the module's
Gauss-Legendre tables through np.asarray and pull the letters back by
the hand-written forms of forms_oracle.
reference_panel_breaks keeps that code's geometric grading of a first
leg from a singular start, and reference_eval_quadrature is its
refinement loop, reduced to a graded-start flag and a count of the
levels it built.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlog import quadrature
from barlog.duality import phi
from barlog.errors import DivergentTermError, DomainError
from barlog.hyperlog import eval_quadrature
from barlog.ipbenv import w0_pairs
from barlog.quadrature import _GL_CUM, _GL_N, _GL_W, _GL_X
from barlog.words import FORM_BASE, WordPoly
from forms_oracle import form_pullback

LETTERS = ("z1", "z11", "z2", "z22", "z12", "z12_1", "z12_2")
GL_X, GL_W, GL_CUM = (np.asarray(t) for t in (_GL_X, _GL_W, _GL_CUM))


def reference_word_integral(word, panels):
    """Iterated integral of one word over precomputed panels.

    panels: list of (z1 nodes, z2 nodes, dz1, dz2, half-width) in path
    order.  The innermost letter is the last one.
    """
    level_vals = [np.ones(_GL_N, dtype=complex) for _ in panels]
    start = 1.0 + 0j
    # Iterate outward over the word's letters.
    for tag in reversed(word):
        new_vals = []
        start = 0.0 + 0j
        for (z1n, z2n, dz1, dz2, half), inner in zip(panels, level_vals):
            g = form_pullback(tag, z1n, z2n, dz1, dz2) * inner
            new_vals.append(start + half * (GL_CUM @ g))
            start = start + half * np.dot(GL_W, g)
        level_vals = new_vals
    return start


def reference_panel_breaks(graded, pieces):
    """Breakpoints in [0, 1] for one segment: geometric toward 0 when
    graded, each geometric cell split uniformly into `pieces`."""
    if graded:
        base = [0.0] + [2.0 ** -g for g in range(44, -1, -1)]
    else:
        base = [0.0, 1.0]
    breaks = []
    for a, b in zip(base[:-1], base[1:]):
        for q in range(pieces):
            breaks.append(a + (b - a) * q / pieces)
    breaks.append(1.0)
    return breaks


def reference_build_panels(path, pieces, graded_first):
    panels = []
    for seg, (p0, p1) in enumerate(zip(path[:-1], path[1:])):
        z10, z20 = complex(p0[0]), complex(p0[1])
        z11_, z21 = complex(p1[0]), complex(p1[1])
        dz1, dz2 = z11_ - z10, z21 - z20
        breaks = reference_panel_breaks(graded_first and seg == 0, pieces)
        for a, b in zip(breaks[:-1], breaks[1:]):
            half = (b - a) / 2.0
            tn = (a + b) / 2.0 + half * GL_X
            panels.append((z10 + tn * dz1, z20 + tn * dz2, dz1, dz2, half))
    return panels


def reference_eval_quadrature(p, path, graded, tol=1e-10, max_refine=7):
    """(value, levels built) of the per-panel refinement loop."""
    prev = None
    pieces = 2
    for level in range(1, max_refine + 2):
        panels = reference_build_panels(path, pieces, graded_first=graded)
        total = 0.0 + 0j
        for w, c in p.terms.items():
            total += complex(c) * reference_word_integral(w, panels)
        if prev is not None and abs(total - prev) < tol / 2:
            return total, level
        prev = total
        pieces *= 2
    return prev, max_refine + 1


def test_tables_match_numpy():
    # The nodes and weights are numpy's; _GL_CUM integrates from -1
    # every polynomial of degree < 16 exactly, up to rounding.
    x, w = np.polynomial.legendre.leggauss(_GL_N)
    assert np.abs(GL_X - x).max() <= 1e-15
    assert np.abs(GL_W - w).max() <= 1e-15
    for m in range(_GL_N):
        exact = (GL_X ** (m + 1) - (-1) ** (m + 1)) / (m + 1)
        assert np.abs(GL_CUM @ GL_X ** m - exact).max() <= 1e-14, m


def batched_word_integral(word, path, pieces):
    segments = quadrature._build_panels(path, pieces)
    return quadrature._level_integrals([word], segments)[word]


# -- paths inside the polydisc and the words they can integrate ----------

_coord = st.builds(complex, st.floats(0.05, 0.6), st.floats(-0.2, 0.2))
_point = st.one_of(
    st.tuples(_coord, _coord),                  # generic
    st.tuples(_coord, st.just(0j)),             # on the axis z2 = 0
    st.tuples(st.just(0j), _coord))             # on the axis z1 = 0


@st.composite
def paths(draw):
    """Two- and three-leg polylines.  The start is the origin or a
    generic point; later points may lie on either axis, so legs can
    ride an axis (dz1 = 0 with z1 = 0, or dz2 = 0 with z2 = 0)."""
    from_origin = draw(st.booleans())
    start = (0j, 0j) if from_origin else draw(st.tuples(_coord, _coord))
    rest = draw(st.lists(_point, min_size=2, max_size=3))
    return [start] + rest, from_origin


def allowed_letters(path, from_origin):
    """All letters but a pure-log one whose pole a leg reaches while
    moving in that variable (other than at the start of a path from the
    origin), where the integral is improper and no quadrature of it
    converges."""
    out = set(LETTERS)
    for seg, (p0, p1) in enumerate(zip(path[:-1], path[1:])):
        for var, letter in ((0, "z1"), (1, "z2")):
            ends = ([p1[var]] if from_origin and seg == 0
                    else [p0[var], p1[var]])
            if p1[var] != p0[var] and 0 in ends:
                out.discard(letter)
    return sorted(out)


@st.composite
def path_and_words(draw):
    path, from_origin = draw(paths())
    word = st.lists(st.sampled_from(allowed_letters(path, from_origin)),
                    max_size=3).map(tuple)
    if from_origin:
        # A pure-log innermost letter diverges at the origin.
        word = word.filter(lambda w: not w or w[-1] not in ("z1", "z2"))
    words = draw(st.lists(word, min_size=1, max_size=4, unique=True))
    return path, words


@settings(max_examples=60, deadline=None)
@given(paths(), st.booleans(), st.sampled_from((1, 2)))
def test_pullback_equals_the_hand_written_forms(case, real, pieces):
    # formspace's exact table, evaluated a segment at a time, gives the
    # hand-written forms' values exactly, on real and complex legs and
    # on legs along an axis, where dz1 or dz2 is 0.
    path, _ = case
    if real:
        path = [(a.real, b.real) for a, b in path]
    segments = quadrature._build_panels(path, pieces)
    pullbacks = quadrature._pullbacks(LETTERS, segments)
    for tag in LETTERS:
        assert pullbacks[tag] == [
            form_pullback(tag, a, b, dz1, dz2)
            for z1n, z2n, dz1, dz2 in segments
            for a, b in zip(z1n, z2n)], tag


@settings(max_examples=60, deadline=None)
@given(path_and_words(), st.sampled_from((1, 2, 4)))
def test_batched_kernel_matches_per_panel_loop(case, pieces):
    # The same plain panels on both sides, so only rounding differs.
    path, words = case
    segments = quadrature._build_panels(path, pieces)
    panels = reference_build_panels(path, pieces, graded_first=False)
    values = quadrature._level_integrals(words, segments)
    assert sorted(values) == sorted(words)
    for w in words:
        assert abs(values[w] - reference_word_integral(w, panels)) <= 1e-12


def test_axis_riding_legs_skip_the_vanishing_derivative():
    # dz1 = 0 on z1 = 0 and dz2 = 0 on z2 = 0: the z1 (z2) component is
    # skipped, not 0/0, so a word that moves only in the other variable
    # integrates to zero.
    on_z1_axis = [(0j, 0.1 + 0j), (0j, 0.5 + 0j)]
    on_z2_axis = [(0.1 + 0j, 0j), (0.5 + 0j, 0j)]
    for path, word in ((on_z1_axis, ("z1", "z11")),
                       (on_z2_axis, ("z2", "z22"))):
        assert batched_word_integral(word, path, 2) == 0
        assert batched_word_integral(word[1:], path, 2) == 0


# -- suffix sharing ------------------------------------------------------

def test_shared_suffixes_change_no_value():
    path = [(0j, 0j), (0.3 + 0j, 0.1 + 0j), (0.4 + 0j, 0.35 + 0j)]
    words = [("z11", "z12_1", "z11"), ("z12_1", "z11"), ("z1", "z12_1",
             "z11"), ("z11",), ("z22", "z11"), ("z12_2", "z22"), ()]
    segments = quadrature._build_panels(path, 4)
    together = quadrature._level_integrals(words, segments)
    for w in words:
        assert together[w] == quadrature._level_integrals([w], segments)[w]


def test_integral_of_sum_is_sum_of_monomial_integrals():
    path = [(0, 0), (0.2, 0.4), (0.45, 0.3)]
    p = phi(("Z11", "Z12"), ("Z22",), direction="1x2")
    assert len(p.terms) > 1
    total = eval_quadrature(p, path, tol=1e-12)
    parts = sum(complex(c) * eval_quadrature(
        WordPoly.monomial(FORM_BASE, w), path, tol=1e-12)
        for w, c in p.terms.items())
    assert abs(total - parts) < 1e-12


# -- refinement ----------------------------------------------------------

def test_non_convergence_raises():
    # The leg ends 0.01 from the pole of z11, so two levels differ by
    # about 3e-6; a single level has no difference to compare.
    p = WordPoly.monomial(FORM_BASE, ("z1", "z11"))
    path = [(0.1, 0.1), (0.99, 0.1)]
    with pytest.raises(DomainError,
                       match=r"last difference [\d.]+e-\d+, tol 1e-30"):
        eval_quadrature(p, path, tol=1e-30, max_refine=1)
    with pytest.raises(DomainError, match="last difference inf"):
        eval_quadrature(p, path, max_refine=0)


@pytest.fixture
def no_panels(monkeypatch):
    """Fail any test that builds a quadrature panel."""
    def build(*args, **kwargs):
        raise AssertionError("a panel was built")

    monkeypatch.setattr(quadrature, "_build_panels", build)


def test_bad_tol_or_max_refine_is_rejected(no_panels):
    p = WordPoly.monomial(FORM_BASE, ("z11",))
    path = [(0.1, 0.1), (0.5, 0.2)]
    for tol in (float("nan"), 0, -1, float("inf")):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            eval_quadrature(p, path, tol=tol)
    for max_refine in (-1, 2.5):
        with pytest.raises(ValueError, match="max_refine must be an int"):
            eval_quadrature(p, path, max_refine=max_refine)


def test_path_coordinates_must_be_numbers(no_panels):
    # A str would convert to a number, and so would integrate; a str or
    # None coordinate is named with its point before any panel is built.
    p = WordPoly.monomial(FORM_BASE, ("z11",))
    for bad in (("0", "0"), ("0.5", 0), (0, None), None):
        with pytest.raises(ValueError, match="a path point is two") as info:
            eval_quadrature(p, [bad, (0.5, 0)])
        assert repr(bad) in str(info.value)


def test_non_finite_path_is_a_domain_error(no_panels):
    # Rejected before any panel is built, as eval_series rejects NaN.
    p = WordPoly.monomial(FORM_BASE, ("z11",))
    for bad in (float("nan"), float("inf"), complex(0.2, float("nan"))):
        with pytest.raises(DomainError, match="must be finite"):
            eval_quadrature(p, [(0.1, 0.1), (bad, 0.2)])


def test_innermost_letter_singular_at_the_start_is_divergent(no_panels):
    # 1 - z1 vanishes at (1, 0), 1 - z1 z2 at (1, 1), z1 and z2 at the
    # origin and z1 at (0, 0.5): the innermost integral grows like log t
    # there.
    for word, path in ((("z11",), [(1, 0), (0.5, 0)]),
                       (("z12",), [(1, 1), (0.5, 0.5)]),
                       (("z1", "z11"), [(1, 0), (0.5, 0.2)]),
                       (("z2",), [(0, 0), (0.3, 0.4)]),
                       (("z1",), [(0, 0.5), (0.3, 0.6)])):
        p = WordPoly.monomial(FORM_BASE, word)
        with pytest.raises(DivergentTermError, match="innermost letter"):
            eval_quadrature(p, path)


def test_innermost_letter_regular_at_a_singular_start_converges():
    # z1 vanishes at (0, 0.5) and z2 at (0.5, 0), but the innermost
    # letter's atom does not: each integral below is analytic on the leg.
    for word, path in ((("z2",), [(0, 0.5), (0.3, 0.6)]),
                       (("z1",), [(0.5, 0), (0.6, 0.3)])):
        value = eval_quadrature(WordPoly.monomial(FORM_BASE, word), path,
                                tol=1e-12)
        assert abs(value - math.log(1.2)) < 1e-15, word
    # z11 after z2 is int_0^1 0.3 log(1 + 0.2 t) / (1 - 0.3 t) dt.
    value = eval_quadrature(WordPoly.monomial(FORM_BASE, ("z11", "z2")),
                            [(0, 0.5), (0.3, 0.6)], tol=1e-12)
    expected = mpmath.quad(
        lambda t: 0.3 * mpmath.log(1 + 0.2 * t) / (1 - 0.3 * t), [0, 1])
    assert abs(value - complex(expected)) < 1e-12


def test_double_pole_at_the_start_is_divergent(no_panels):
    # Along this leg 1 - z1 z2 = 0.04 t^2, so z12_1 and z12_2 have double
    # poles at t = 0, while z12 = -2 dt / t has a simple one.
    path = [(2, 0.5), (1.6, 0.6)]
    for word in (("z12_1", "z11"), ("z12_2", "z11"), ("z11", "z12_1", "z11")):
        p = WordPoly.monomial(LETTERS, word)
        with pytest.raises(DivergentTermError, match="double pole"):
            eval_quadrature(p, path)


def test_simple_pole_on_the_product_locus_converges():
    # From the same start, the integral of z12 after z11 is
    # 2 int_0^1 log(1 - 0.4 t) dt / t = -2 Li2(0.4).
    p = WordPoly.monomial(FORM_BASE, ("z12", "z11"))
    value = eval_quadrature(p, [(2, 0.5), (1.6, 0.6)], tol=1e-12)
    assert abs(value + 2 * float(mpmath.polylog(2, 0.4))) < 1e-11


def test_refinement_levels_match_per_panel_loop(monkeypatch):
    # The phi pairs of degree <= 3 of the 1x2 splitting along two-leg
    # contours from the origin, as the quadrature-of-phi check runs them.
    # Plain panels take as many levels as the graded first leg did.
    levels = []
    build = quadrature._build_panels

    def counted(*args, **kwargs):
        levels[-1] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_build_panels", counted)
    pairs = [pair for s in (1, 2, 3) for pair in w0_pairs(s, "1x2")][::3]
    for i, (w1, w2) in enumerate(pairs):
        p = phi(w1, w2, direction="1x2")
        path = [(0j, 0j), (0.05 + 0.04 * i, 0.3 + 0j),
                (0.4 + 0j, 0.2 + 0.01 * i)]
        levels.append(0)
        value = eval_quadrature(p, path)
        ref_value, ref_levels = reference_eval_quadrature(p, path, True)
        assert levels[-1] == ref_levels, (w1, w2)
        assert abs(value - ref_value) <= 1e-12, (w1, w2)


# Contours with negative coordinates and a signed zero, off the axes
# but at the start.
_REAL_CONTOURS = [
    [(0.0, 0.0), (-0.3, 0.25), (-0.45, 0.35)],
    [(0.0, -0.0), (-0.3, -0.2), (-0.1, -0.45)],
    [(0.2, -0.1), (0.45, -0.3), (0.3, -0.05)],
]


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="sum() compensates float sums from Python 3.12 "
                           "on, and only from 3.14 on complex ones")
@pytest.mark.parametrize("path", _REAL_CONTOURS)
def test_real_contour_equals_the_same_contour_as_complex(path):
    # Real points are integrated in floats, complex ones in complex
    # arithmetic; every value agrees bit for bit, and so does each word
    # of one level, whose complex value has a zero imaginary part.
    pairs = [pair for s in (1, 2, 3) for pair in w0_pairs(s, "1x2")][::4]
    as_complex = [(complex(a), complex(b)) for a, b in path]
    for w1, w2 in pairs:
        p = phi(w1, w2, direction="1x2")
        real = eval_quadrature(p, path)
        assert repr(real) == repr(eval_quadrature(p, as_complex)), (w1, w2)
    words = list(p.terms)
    real, cplx = (quadrature._level_integrals(
        words, quadrature._build_panels(points, 2))
        for points in (path, as_complex))
    for w in words:
        assert type(real[w]) is float and cplx[w].imag == 0, w
        assert repr(real[w]) == repr(cplx[w].real), w
