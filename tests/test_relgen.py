import itertools
from fractions import Fraction

import pytest

from barlog import relgen
from barlog.errors import AlphabetError, ResourceLimitError
from barlog.hyperlog import ONE, PARAM, HyperlogTerm, term_to_word
from barlog.ipbenv import DIRECTIONS, _reduce_word, w0_pairs
from barlog.relgen import (Relation, decompose_check, generate_all,
                           generate_relation, verify_relation)
from barlog.words import word_sort_key
from json_oracle import relation_to_dict
from relation_oracle import relation_row_via_phi


def term(main, index, letters):
    return HyperlogTerm(main, tuple(index), tuple(letters))


def test_counts_and_trivial_flags():
    rels = generate_all(1)
    assert len(rels) == 3
    assert all(r.trivial for r in rels)
    rels = generate_all(2)
    assert len(rels) == 10
    assert sum(not r.trivial for r in rels) > 0
    assert len(generate_all(3)) == 32


def test_reference_relation_depth_one_one():
    r = generate_relation(("Z11", "Z12"), ())
    assert r.lhs == (term(1, (1, 1), (ONE, PARAM)),
                     term(1, (), ()))
    assert sorted(r.sorted_rhs()) == sorted((
        (Fraction(1), term(2, (1,), (ONE,)), term(1, (1,), (ONE,))),
        (Fraction(-1), term(2, (1, 1), (ONE, PARAM)), term(1, (), ())),
        (Fraction(-1), term(2, (2,), (PARAM,)), term(1, (), ())),
    ))
    assert not r.trivial


def test_reference_relation_flipped():
    r = generate_relation(("Z12", "Z11"), ())
    assert r.lhs[0] == term(1, (1, 1), (PARAM, ONE))
    assert sorted(r.sorted_rhs()) == sorted((
        (Fraction(1), term(2, (1,), (PARAM,)), term(1, (1,), (ONE,))),
        (Fraction(-1), term(2, (1,), (ONE,)), term(1, (1,), (ONE,))),
        (Fraction(1), term(2, (1, 1), (ONE, PARAM)), term(1, (), ())),
        (Fraction(1), term(2, (2,), (PARAM,)), term(1, (), ())),
    ))


def test_reference_relation_depth_three():
    r = generate_relation(("Z12", "Z11", "Z12"), ())
    assert r.lhs[0] == term(1, (1, 1, 1), (PARAM, ONE, PARAM))
    expected = (
        (Fraction(-2), term(2, (1, 1), (ONE, ONE)), term(1, (1,), (ONE,))),
        (Fraction(2), term(2, (1, 1, 1), (ONE, ONE, PARAM)),
         term(1, (), ())),
        (Fraction(2), term(2, (1, 2), (ONE, PARAM)), term(1, (), ())),
        (Fraction(1), term(2, (1, 1), (PARAM, ONE)), term(1, (1,), (ONE,))),
        (Fraction(1), term(2, (1, 1), (ONE, PARAM)), term(1, (1,), (ONE,))),
        (Fraction(-1), term(2, (1, 1, 1), (PARAM, ONE, PARAM)),
         term(1, (), ())),
        (Fraction(-1), term(2, (1, 2), (PARAM, PARAM)), term(1, (), ())),
    )
    assert sorted(r.sorted_rhs()) == sorted(expected)


def test_verify_relation():
    r = generate_relation(("Z11", "Z12"), ())
    report = verify_relation(r, [(0.3, 0.4), (0.5, -0.4)], max_n=3000)
    assert all(entry["passed"] for entry in report)
    assert all(entry["residual"] < 1e-10 for entry in report)


def test_each_term_is_evaluated_once_per_point():
    """verify_relation gives the reports of the per-product loop (each
    factor through eval_series, the rhs summed in its order) bit for
    bit, and eval_series's LRU sums each distinct term once per point
    across all the relations."""
    from barlog.hyperlog import eval_series, within_bound

    def reference(r, z1, z2, max_n, tol):
        lv, lb = eval_series(r.lhs[0], z1, z2, max_n).times(
            eval_series(r.lhs[1], z1, z2, max_n))
        rv, rb = 0.0 + 0j, 0.0
        for c, t2, t1 in r.rhs:
            v, b = eval_series(t2, z1, z2, max_n).times(
                eval_series(t1, z1, z2, max_n))
            rv += complex(c) * v
            rb += abs(c) * b
        return {"point": (z1, z2), "lhs": lv, "rhs": rv,
                "residual": abs(lv - rv), "bound": lb + rb,
                "passed": within_bound(abs(lv - rv), lb + rb, tol)}

    relations = generate_all(4)
    points = [(0.3, 0.4), (-0.3, 0.45)]
    eval_series.cache_clear()
    reports = [verify_relation(r, points, 2000, 1e-8) for r in relations]
    terms = {t for r in relations
             for t in r.lhs + tuple(x for _, t2, t1 in r.rhs
                                    for x in (t2, t1))}
    assert eval_series.cache_info().misses == len(terms) * len(points)
    assert repr(reports) == repr([[reference(r, *point, 2000, 1e-8)
                                   for point in points] for r in relations])


def test_verify_at_origin():
    r = generate_relation(("Z11", "Z12"), ())
    report = verify_relation(r, [(0.0, 0.2)], max_n=200)
    assert abs(report[0]["lhs"]) < 1e-15
    assert abs(report[0]["rhs"]) < 1e-15


def test_relations_all_valid_numerically():
    for r in generate_all(2):
        report = verify_relation(r, [(0.3, 0.4)], max_n=2000, tol=1e-8)
        assert report[0]["passed"], r.render()


def test_evaluation_points_are_checked_before_any_work(monkeypatch):
    from barlog import duality

    def forbidden(*args):
        raise AssertionError("work done before the points were checked")

    r = generate_relation(("Z11",), ("Z22",))
    duality._certified_kernel.cache_clear()
    monkeypatch.setattr(relgen, "certified_kernel", forbidden)
    monkeypatch.setattr(relgen, "eval_series", forbidden)
    monkeypatch.setattr(duality, "certified_kernel", forbidden)
    # A coordinate that is not a number, a str too, is named with its
    # point before any kernel or series is built.
    for point in ((0.3,), (0.3, 0.4, 0.5), 0.3, (), (0.3, None),
                  (None, 0.4), (0.3, "a"), ("0.3", 0.4), "ab"):
        with pytest.raises(ValueError, match="two coordinates") as info:
            decompose_check(2, point=point)
        assert repr(point) in str(info.value)
        with pytest.raises(ValueError, match="two coordinates"):
            verify_relation(r, [(0.3, 0.4), point])
    assert duality._certified_kernel.cache_info().currsize == 0
    # Every number type the series accept is a coordinate.
    monkeypatch.undo()
    for point in ((0, 0), (0.3, -0.4), (0.3j, 0.4 + 0j),
                  (Fraction(3, 10), Fraction(2, 5))):
        (report,) = verify_relation(r, [point])
        assert report["passed"], point
    # No point would be an empty report, which all() reads as a pass.
    for points in ([], iter(())):
        with pytest.raises(ValueError, match="no evaluation point"):
            verify_relation(r, points)


def test_tolerance_is_checked_before_any_work(monkeypatch):
    from barlog import duality

    # Five added to every right-hand coefficient: a relation that fails.
    good = generate_relation(("Z11", "Z12"), ())
    bad = good._replace(rhs=tuple((c + 5, t2, t1) for c, t2, t1 in good.rhs))
    (report,) = verify_relation(bad, [(0.3, 0.4)])
    assert report["residual"] > 1 and not report["passed"]

    def forbidden(*args):
        raise AssertionError("work done before tol was checked")

    duality._certified_kernel.cache_clear()
    monkeypatch.setattr(relgen, "certified_kernel", forbidden)
    monkeypatch.setattr(relgen, "eval_series", forbidden)
    monkeypatch.setattr(duality, "certified_kernel", forbidden)
    # An infinite tol would pass every check, and a NaN, zero or
    # negative one fail every check.
    for tol in (float("inf"), float("nan"), 0.0, -1e-8):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            verify_relation(bad, [(0.3, 0.4)], tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            decompose_check(2, tol=tol)
    assert duality._certified_kernel.cache_info().currsize == 0


def test_invalid_words_rejected(monkeypatch):
    # Each argument error is raised before any row of C_s is built.
    def no_rows(s):
        raise AssertionError("row built for an invalid pair")

    monkeypatch.setattr(relgen, "_relation_rows", no_rows)
    for w1, w2 in ((("Z11", "Z1"), ()), ((), ("Z22", "Z2"))):
        with pytest.raises(ValueError, match="ends in Z1/Z2"):
            generate_relation(w1, w2)
    for w1, w2 in ((("Z22",), ()), ((), ("Z12",))):
        with pytest.raises(AlphabetError, match="not in the"):
            generate_relation(w1, w2)
    with pytest.raises(ResourceLimitError, match="exceeds cap 3"):
        generate_relation(("Z11", "Z12"), ("Z22", "Z22"), cap=3)


@pytest.mark.parametrize("s, order, nonzeros", [
    (0, 1, 1), (1, 3, 3), (2, 10, 16), (3, 32, 106), (4, 100, 780),
    (5, 308, 6171)])
def test_relation_rows_equal_the_phi_route(s, order, nonzeros):
    rows = relgen._relation_rows(s)
    assert list(rows) == w0_pairs(s, "1x2")
    assert len(rows) == order
    assert sum(map(len, rows.values())) == nonzeros
    for p, row in rows.items():
        assert relation_row_via_phi(*p) == row, p


def test_relation_matrix_is_square():
    # No non-admissible 2x1 product word reaches an admissible 1x2 pair,
    # so the admissible 2x1 words index every column of C_s.
    d = DIRECTIONS["2x1"]
    for s in range(6):
        rows, columns = set(w0_pairs(s, "1x2")), set(w0_pairs(s, d))
        for s1 in range(s + 1):
            for q in itertools.product(
                    itertools.product(d.left_letters, repeat=s1),
                    itertools.product(d.right_letters, repeat=s - s1)):
                if q not in columns:
                    assert not rows & set(_reduce_word(q[0] + q[1])), q


def test_relation_rows_are_in_word_order():
    # The rows of C_s come in the word order of their 2x1 columns, with
    # no sort; generate_relation keeps that order and verify_relation
    # sums in it, which fixes the last bits of each residual.  Each row
    # is kept as the readout gives it: a dict of nonzero ints in print
    # order, by the left word and then the right one.
    d = DIRECTIONS["2x1"]
    left = word_sort_key(d.left_alphabet)
    right = word_sort_key(d.right_alphabet)
    for s in range(6):
        rows = relgen._relation_rows(s)
        for r in generate_all(s):
            row = rows[r.w1, r.w2]
            assert list(row) == sorted(row, key=lambda p: (left(p[0]),
                                                           right(p[1])))
            assert all(type(c) is int and c for c in row.values())
            assert [(term_to_word(t2), term_to_word(t1))
                    for _, t2, t1 in r.rhs] == list(row)


def test_decompose_check_low_degrees():
    for s in (1, 2):
        out = decompose_check(s, point=(0.3, 0.4), max_n=3000)
        assert out["symbolic"]
        assert out["residual"] < 1e-8
        assert out["passed"]


def test_relation_json_shape():
    r = generate_relation(("Z11", "Z12"), ())
    d = relation_to_dict(r, verified=True, residual=0.0)
    assert d["degree"] == 2
    assert d["w1"] == ["Z11", "Z12"]
    assert d["w2"] == []
    assert d["verified"] is True
    assert {"factor2", "factor1", "coeff"} <= set(d["rhs"][0])


def test_equal_relations_hash_equal():
    # Equality ignores the order of rhs, so the hash must too: a set
    # keeps one of a relation and its copy with rhs reversed.
    r = next(r for r in generate_all(3) if len(r.rhs) > 1)
    copy = r._replace(rhs=r.rhs[::-1])
    assert copy.rhs != r.rhs
    assert copy == r and not copy != r
    assert hash(copy) == hash(r)
    assert len({r, copy}) == 1


def test_weight_homogeneous():
    for r in generate_all(3):
        lhs_weight = sum(t.weight for t in r.lhs)
        for _, t2, t1 in r.rhs:
            assert t2.weight + t1.weight == lhs_weight == 3


def test_symbolic_check_rejects_a_wrong_decomposition(monkeypatch):
    # decompose_check reads every kernel coefficient through phi and
    # rejects a coefficient outside the admissible pairs.
    from barlog import duality, ipbenv
    from barlog.errors import BarlogError
    from barlog.words import FORM_BASE, WordPoly

    real = ipbenv._omega_decomposition
    good = real(2, "1x2")
    pair = (("Z11", "Z12"), ())
    duality._certified_kernel.cache_clear()
    try:
        assert decompose_check(2)["passed"]
        for change, message in (
                ({pair: good[pair].scale(2)}, "does not split"),
                ({pair: WordPoly.zero(FORM_BASE)}, "does not split"),
                ({pair: good[pair] + WordPoly.monomial(FORM_BASE,
                                                       ("z2", "z1"))},
                 "does not split"),
                ({(("Z1",), ("Z2",)): good[pair]}, "non-admissible")):
            def wrong(s, direction, change=change):
                if (s, direction) == (2, "1x2"):
                    return {**good, **change}
                return real(s, direction)

            monkeypatch.setattr(ipbenv, "_omega_decomposition", wrong)
            duality._certified_kernel.cache_clear()
            with pytest.raises(BarlogError, match=message):
                decompose_check(2)
        monkeypatch.undo()
        duality._certified_kernel.cache_clear()
        assert real(2, "1x2") == good and decompose_check(2)["passed"]
    finally:
        duality._certified_kernel.cache_clear()


def test_relations_build_no_kernel_and_run_no_chen_check(monkeypatch):
    # The relations read C_s from the word rewriting alone: no kernel,
    # no phi and no Chen check on their path.
    from barlog import duality, formspace, ipbenv

    calls = []
    chen_defect = formspace.chen_defect

    def counted(*args):
        calls.append(args)
        return chen_defect(*args)

    monkeypatch.setattr(formspace, "chen_defect", counted)
    caches = (relgen._relation_rows, ipbenv._omega_decomposition,
              duality._certified_kernel)
    for cached in caches:
        cached.cache_clear()
    generate_all(4)
    generate_relation(("Z11", "Z12"), ("Z22",))
    assert not calls
    assert ipbenv._omega_decomposition.cache_info().currsize == 0
    assert duality._certified_kernel.cache_info().currsize == 0


def test_degree_is_checked_before_any_pair(monkeypatch):
    from barlog import relgen
    from barlog.errors import ResourceLimitError

    def no_pairs(*args):
        raise AssertionError("pairs enumerated for an invalid degree")

    monkeypatch.setattr(relgen, "w0_pairs", no_pairs)
    for check in (generate_all, decompose_check):
        with pytest.raises(ValueError, match="nonnegative"):
            check(-1)
        with pytest.raises(ResourceLimitError, match="exceeds cap 6"):
            check(9)
        with pytest.raises(ResourceLimitError, match="exceeds cap 2"):
            check(3, cap=2)
