import random
from fractions import Fraction

from barlog.linalg import RowReducer, canonical_basis
from chen_oracle import nullspace_combos


def test_rank_and_dependencies():
    red = RowReducer()
    assert red.add({"a": 1, "b": 2}, 0) is None
    assert red.add({"b": 1}, 1) is None
    dep = red.add({"a": 2, "b": 5}, 2)
    # 2*v0 + v1 - v2 = 0
    assert dep == {0: Fraction(-2), 1: Fraction(-1), 2: Fraction(1)}
    assert red.rank == 2


def test_solve():
    red = RowReducer()
    red.add({"x": 2, "y": 1}, "p")
    red.add({"y": 3}, "q")
    rep = red.solve({"x": 2, "y": 7})
    assert rep == {"p": Fraction(1), "q": Fraction(2)}
    assert red.solve({"z": 1}) is None


def test_dependency_certificates_random():
    rng = random.Random(3)
    keys = list("abcde")
    vectors = []
    for _ in range(12):
        vectors.append({k: Fraction(rng.randrange(-3, 4))
                        for k in keys if rng.random() < 0.6})
    red = RowReducer()
    for i, v in enumerate(vectors):
        dep = red.add(dict(v), i)
        if dep is not None:
            # The certified combination must vanish.
            acc = {}
            for j, c in dep.items():
                for k, val in vectors[j].items():
                    acc[k] = acc.get(k, Fraction(0)) + c * val
            assert all(v == 0 for v in acc.values())
            assert dep[i] == 1


def test_canonical_basis_is_rref():
    vecs = [{"a": 1, "b": 1}, {"b": 1, "c": 1}, {"a": 1, "c": -1}]
    basis = canonical_basis(vecs)
    assert len(basis) == 2
    pivots = [min(row) for row in basis]
    # Each pivot appears in exactly one row with coefficient 1.
    for piv, row in zip(pivots, basis):
        assert row[piv] == 1
        for other in basis:
            if other is not row:
                assert piv not in other


def test_nullspace_combos():
    vecs = [{"a": 1}, {"a": 2}, {"b": 1}, {"a": 1, "b": 1}]
    combos = nullspace_combos(vecs)
    assert len(combos) == 2
    for combo in combos:
        acc = {}
        for i, c in combo.items():
            for k, v in vecs[i].items():
                acc[k] = acc.get(k, Fraction(0)) + c * v
        assert all(v == 0 for v in acc.values())
