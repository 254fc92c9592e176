"""Acceptance suite: one test (one pass/fail line under pytest -v) per
criterion, at the stated tolerances."""

import itertools
import random
import time
from fractions import Fraction

from barlog.duality import iota, iota_inv, phi
from barlog.formspace import (bar_basis, relation_space_contains,
                              wedge_relation_space)
from barlog.harmonic import (equivalence_check, eval_sum, eval_tagged,
                             mpl_harmonic_expand, mzv_truncated)
from barlog.hyperlog import (COEFF_EVAL, ONE, PARAM, HyperlogTerm,
                             eval_quadrature, eval_series, partial_derivative)
from barlog.ipbenv import DIRECTIONS, _reduce_word, normal_form
from barlog.linalg import RowReducer
from barlog.relgen import decompose_check, generate_relation, verify_relation
from barlog.words import FORM_BASE, LIE_BASE, WordPoly
from chen_oracle import splitting_solver
from rightmost_oracle import reduce_word_rightmost


def test_criterion_01_bar_dimensions():
    start = time.monotonic()
    dims = [len(bar_basis(s)) for s in (1, 2, 3, 4)]
    elapsed = time.monotonic() - start
    assert dims == [5, 19, 65, 211]
    assert dims == [3 ** (s + 1) - 2 ** (s + 1) for s in (1, 2, 3, 4)]
    assert elapsed < 60.0


def test_criterion_02_wedge_relation_space():
    ws = wedge_relation_space()
    assert ws.dimension == 6
    assert len(ws.relations) == 4
    known = [
        # the two mixed-variable quadratic relations
        {("z22", "z11"): 1, ("z11", "z12"): 1,
         ("z12", "z22"): 1, ("z12", "z2"): 1},
        {("z1", "z12"): 1, ("z2", "z12"): 1},
        # the two same-variable degeneracies
        {("z1", "z11"): 1},
        {("z2", "z22"): 1},
    ]
    red = RowReducer()
    for i, rel in enumerate(known):
        assert relation_space_contains(rel)
        vec = {}
        for (a, b), c in rel.items():
            if FORM_BASE.index(a) < FORM_BASE.index(b):
                vec[(a, b)] = vec.get((a, b), 0) + c
            else:
                vec[(b, a)] = vec.get((b, a), 0) - c
        assert red.add(vec, i) is None
    assert red.rank == 4  # spans the whole relation space


def test_criterion_03_phi_reproduction():
    assert phi(("Z11", "Z12"), ()).terms == {
        ("z11", "z12"): Fraction(1),
        ("z22", "z11"): Fraction(1),
        ("z22", "z12"): Fraction(-1),
        ("z2", "z12"): Fraction(-1),
    }
    assert phi(("Z12", "Z11", "Z12"), ()).terms == {
        ("z12", "z11", "z12"): Fraction(1),
        ("z12", "z22", "z11"): Fraction(1),
        ("z12", "z22", "z12"): Fraction(-1),
        ("z12", "z2", "z12"): Fraction(-1),
        ("z22", "z11", "z12"): Fraction(-1),
        ("z22", "z12", "z11"): Fraction(1),
        ("z22", "z2", "z12"): Fraction(2),
        ("z22", "z22", "z11"): Fraction(-2),
        ("z22", "z22", "z12"): Fraction(2),
    }


def test_criterion_04_worked_relations():
    def t(main, index, letters):
        return HyperlogTerm(main, tuple(index), tuple(letters))

    start = time.monotonic()
    expected = {
        ("Z11", "Z12"): [
            (Fraction(1), t(2, (1,), (ONE,)), t(1, (1,), (ONE,))),
            (Fraction(-1), t(2, (1, 1), (ONE, PARAM)), t(1, (), ())),
            (Fraction(-1), t(2, (2,), (PARAM,)), t(1, (), ())),
        ],
        ("Z12", "Z11"): [
            (Fraction(1), t(2, (1,), (PARAM,)), t(1, (1,), (ONE,))),
            (Fraction(-1), t(2, (1,), (ONE,)), t(1, (1,), (ONE,))),
            (Fraction(1), t(2, (1, 1), (ONE, PARAM)), t(1, (), ())),
            (Fraction(1), t(2, (2,), (PARAM,)), t(1, (), ())),
        ],
        ("Z12", "Z11", "Z12"): [
            (Fraction(-2), t(2, (1, 1), (ONE, ONE)), t(1, (1,), (ONE,))),
            (Fraction(2), t(2, (1, 1, 1), (ONE, ONE, PARAM)),
             t(1, (), ())),
            (Fraction(2), t(2, (1, 2), (ONE, PARAM)), t(1, (), ())),
            (Fraction(1), t(2, (1, 1), (PARAM, ONE)), t(1, (1,), (ONE,))),
            (Fraction(1), t(2, (1, 1), (ONE, PARAM)), t(1, (1,), (ONE,))),
            (Fraction(-1), t(2, (1, 1, 1), (PARAM, ONE, PARAM)),
             t(1, (), ())),
            (Fraction(-1), t(2, (1, 2), (PARAM, PARAM)), t(1, (), ())),
        ],
    }
    for w1, rhs in expected.items():
        r = generate_relation(w1, ())
        assert sorted(r.sorted_rhs()) == sorted(rhs), w1
        report = verify_relation(r, [(0.3, 0.4)], max_n=10000, tol=1e-8)
        assert report[0]["residual"] < 1e-8
        assert report[0]["passed"]
    assert time.monotonic() - start < 5.0


def test_criterion_05_kernel_decomposition():
    for s in (1, 2, 3, 4):
        out = decompose_check(s, point=(0.3, 0.4), max_n=4000, tol=1e-8)
        assert out["symbolic"], s
        assert out["residual"] < 1e-8, s
        assert out["passed"], s


def test_criterion_06_iota_isomorphism():
    rng = random.Random(20)
    for direction in ("1x2", "2x1"):
        for s in (1, 2, 3, 4):
            rank = splitting_solver(direction, s, bar_basis).rank
            assert rank == len(bar_basis(s))
        # exact round trips on random integrable elements
        for s in (1, 2, 3):
            p = WordPoly.zero(FORM_BASE)
            for b in bar_basis(s):
                p = p + b.scale(rng.randrange(-3, 4))
            t = iota(p, direction)
            assert iota_inv(t, direction) == p
            assert iota(iota_inv(t, direction), direction) == t


def test_criterion_07_rewriting_soundness():
    rng = random.Random(21)
    for _ in range(1000):
        word = tuple(rng.choice(LIE_BASE)
                     for _ in range(rng.randrange(1, 6)))
        assert _reduce_word(word) == \
            reduce_word_rightmost(word, "1x2"), word
        assert normal_form(WordPoly.monomial(LIE_BASE, word), "2x1") == \
            reduce_word_rightmost(word, "2x1"), word
    # bracket closure: [y, W] stays in the left factor, exhaustively to
    # degree 4
    left = DIRECTIONS["1x2"].left_letters
    for y in ("Z2", "Z22"):
        for n in range(1, 5):
            for w in itertools.product(left, repeat=n):
                p = (WordPoly.monomial(LIE_BASE, (y,) + w)
                     - WordPoly.monomial(LIE_BASE, w + (y,)))
                for (_, w2) in normal_form(p):
                    assert w2 == (), (y, w)


def test_criterion_08_harmonic_equivalence():
    report = equivalence_check(5)
    assert report
    assert all(ok for _, _, ok in report)
    points = [(0.3, 0.4), (0.5, -0.5), (-0.4, 0.6), (0.25, 0.25),
              (-0.3, -0.55)]
    for k, l in (((1,), (1,)), ((2,), (3,)), ((1, 1), (2,)),
                 ((2, 1), (1, 1)), ((3,), (1, 1))):
        expansion = mpl_harmonic_expand(k, l)
        for z1, z2 in points:
            lhs = (eval_tagged((k, (len(k), 0), "12"),
                               z1, z2, 4000).value
                   * eval_tagged((l, (len(l), 0), "12"),
                                 z2, z1, 4000).value)
            rhs, bound = eval_sum(expansion, z1, z2, 4000)
            assert abs(lhs - rhs) <= 1e-8 + bound, (k, l, z1, z2)


def test_criterion_09_mzv_numerics():
    n = 100000
    tol = 1e-12
    z2 = mzv_truncated((2,), n)
    z3 = mzv_truncated((3,), n)
    lhs = z2.value * z3.value
    lhs_bound = (abs(z2.value) * z3.truncation_bound
                 + abs(z3.value) * z2.truncation_bound)
    parts = [mzv_truncated(idx, n) for idx in ((2, 3), (3, 2), (5,))]
    rhs = sum(p.value for p in parts)
    rhs_bound = sum(p.truncation_bound for p in parts)
    assert abs(lhs - rhs) <= tol + lhs_bound + rhs_bound

    a = mzv_truncated((2, 1), n)
    b = mzv_truncated((3,), n)
    assert abs(a.value - b.value) <= tol + a.truncation_bound \
        + b.truncation_bound


def test_criterion_10_homotopy_invariance():
    rng = random.Random(22)
    start_pt = (0.05, 0.06)
    end_pt = (0.55, 0.45)
    for trial in range(20):
        s = rng.randrange(1, 4)
        basis = bar_basis(s)
        p = WordPoly.zero(FORM_BASE)
        while not p:
            p = WordPoly.zero(FORM_BASE)
            for b in rng.sample(basis, min(3, len(basis))):
                p = p + b.scale(rng.randrange(-2, 3))
        mid_a = (rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6))
        mid_b = (rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6))
        va = eval_quadrature(p, [start_pt, mid_a, end_pt], tol=1e-11)
        vb = eval_quadrature(p, [start_pt, mid_b, end_pt], tol=1e-11)
        assert abs(va - vb) < 1e-8, (trial, p)


def test_criterion_11_differential_relations():
    def mpl(index, i, j):
        # The main-z1 block-sorted term of Li_index(i, j; z1, z2).
        return HyperlogTerm(1, index, (ONE,) * i + (PARAM,) * j)

    rng = random.Random(23)
    z1, z2 = 0.3, 0.35
    h = 1e-5
    seen = set()
    cases = []
    while len(cases) < 10:
        weight = rng.randrange(1, 5)
        index = []
        while sum(index) < weight:
            index.append(rng.randrange(1, weight - sum(index) + 1))
        index = tuple(index)
        i = rng.randrange(0, len(index) + 1)
        cases.append(mpl(index, i, len(index) - i))
    # make sure every branch shape occurs at least once
    cases += [mpl((1, 2), 0, 2), mpl((1, 2), 1, 1), mpl((2, 1), 1, 1),
              mpl((2, 1), 2, 0)]
    for m in cases:
        for var in (1, 2):
            for tag, _, _ in partial_derivative(m, var):
                seen.add((var, tag))

            def value(a, b):
                return eval_series(m, a, b, 6000).value

            if var == 1:
                fd = (value(z1 + h, z2) - value(z1 - h, z2)) / (2 * h)
            else:
                fd = (value(z1, z2 + h) - value(z1, z2 - h)) / (2 * h)
            an = 0.0
            for tag, c, mi in partial_derivative(m, var):
                base = (eval_series(mi, z1, z2, 6000).value if mi.index
                        else 1.0)
                an += complex(c) * COEFF_EVAL[tag](z1, z2) * base
            assert abs(fd - an) < 1e-6, (m, var)
    # all five branch coefficient kinds exercised
    assert {"1/z1", "1/(1-z1)", "z2/(1-z1z2)", "1/z2", "1/(1-z2)",
            "z1/(1-z1z2)"} <= {tag for _, tag in seen}
