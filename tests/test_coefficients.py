"""Integer coefficient core: integral coefficients stay int.

The reference below is a verbatim copy of the all-Fraction vec_add_into
and RowReducer that linalg used before num(); on random small integer
and rational matrices the int/Fraction core must give the same values
in the same dict order, with every integral value an int and every
other value a Fraction.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlog.formspace import bar0_basis, bar_basis, wedge_relation_space
from barlog.ipbenv import omega_decomposition, omega_power
from barlog.linalg import RowReducer, num, vec_add_into


def ref_vec_scale(vec, coeff):
    coeff = Fraction(coeff)
    if not coeff:
        return {}
    return {k: v * coeff for k, v in vec.items()}


def ref_vec_add_into(target, vec, coeff=1):
    if type(coeff) is not Fraction:
        coeff = Fraction(coeff)
    if not coeff:
        return target
    for k, v in vec.items():
        c = target.get(k)
        c = coeff * v if c is None else c + coeff * v
        if c:
            target[k] = c
        else:
            target.pop(k, None)
    return target


class RefRowReducer:
    def __init__(self):
        self._rows = {}

    @property
    def rank(self):
        return len(self._rows)

    def _reduce(self, vec):
        residual = {k: Fraction(v) for k, v in vec.items() if v}
        rep = {}
        for piv in [k for k in residual if k in self._rows]:
            c = residual.get(piv)
            if not c:
                continue
            row, combo = self._rows[piv]
            ref_vec_add_into(residual, row, -c)
            ref_vec_add_into(rep, combo, c)
        return residual, rep

    def add(self, vec, tag):
        residual, rep = self._reduce(vec)
        if not residual:
            dep = {tag: Fraction(1)}
            ref_vec_add_into(dep, rep, -1)
            return dep
        pivot = min(residual)
        inv = 1 / residual[pivot]
        row = ref_vec_scale(residual, inv)
        combo = ref_vec_add_into({tag: inv}, rep, -inv)
        for other_piv, (other_row, other_combo) in list(self._rows.items()):
            c = other_row.get(pivot)
            if c:
                ref_vec_add_into(other_row, row, -c)
                ref_vec_add_into(other_combo, combo, -c)
        self._rows[pivot] = (row, combo)
        return None

    def solve(self, vec):
        residual, rep = self._reduce(vec)
        if residual:
            return None
        return rep

    def contains(self, vec):
        residual, _ = self._reduce(vec)
        return not residual

    def rows(self):
        return [(piv, dict(row), dict(combo))
                for piv, (row, combo) in sorted(self._rows.items())]


def assert_same(got, ref):
    """Equal values in the same key order; ints exactly where integral."""
    assert list(got.items()) == list(ref.items())
    for v in got.values():
        assert type(v) is (int if Fraction(v).denominator == 1
                           else Fraction)


integers = st.integers(-4, 4)
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
coeffs = st.one_of(integers, rationals)


def vectors(values):
    return st.dictionaries(st.integers(0, 5), values, max_size=6)


def matrices(values):
    return st.lists(vectors(values), min_size=1, max_size=8)


@given(st.one_of(st.integers(-10**30, 10**30), st.fractions()))
def test_num_keeps_the_value_and_makes_integers_int(c):
    n = num(c)
    assert n == c and hash(n) == hash(c) and str(n) == str(Fraction(c))
    assert type(n) is (int if Fraction(c).denominator == 1 else Fraction)


def test_num_of_other_exact_inputs():
    assert type(num(Fraction(6, 3))) is int
    assert num("3/6") == Fraction(1, 2)
    assert type(num("4/2")) is int
    assert type(num(0.5)) is Fraction
    assert num(True) == 1 and type(num(True)) is int


@settings(max_examples=200, deadline=None)
@given(vectors(coeffs), vectors(coeffs), coeffs)
def test_vec_add_into_matches_fraction_reference(target, vec, coeff):
    ref = ref_vec_add_into({k: Fraction(v) for k, v in target.items()
                            if v}, vec, coeff)
    got = vec_add_into({k: num(v) for k, v in target.items() if v},
                       vec, coeff)
    assert_same(got, ref)


@pytest.mark.parametrize("values", [integers, coeffs],
                         ids=["integer", "rational"])
def test_row_reducer_matches_fraction_reference(values):
    @settings(max_examples=150, deadline=None)
    @given(matrices(values), vectors(values))
    def check(rows, probe):
        red, ref = RowReducer(), RefRowReducer()
        for i, vec in enumerate(rows):
            dep, ref_dep = red.add(vec, i), ref.add(vec, i)
            assert (dep is None) == (ref_dep is None)
            if dep is not None:
                assert_same(dep, ref_dep)
        assert red.rank == ref.rank
        for (piv, row, combo), (rpiv, rrow, rcombo) in zip(red.rows(),
                                                           ref.rows()):
            assert piv == rpiv
            assert_same(row, rrow)
            assert_same(combo, rcombo)
        assert red.contains(probe) == ref.contains(probe)
        rep, ref_rep = red.solve(probe), ref.solve(probe)
        assert (rep is None) == (ref_rep is None)
        if rep is not None:
            assert_same(rep, ref_rep)

    check()


def test_non_unit_pivots_take_the_fraction_branch():
    red = RowReducer()
    assert red.add({0: 2, 1: 3}, "a") is None
    assert red.add({1: 4}, "b") is None
    (_, row0, combo0), (_, row1, combo1) = red.rows()
    assert row0 == {0: 1} and type(row0[0]) is int
    assert combo0 == {"a": Fraction(1, 2), "b": Fraction(-3, 8)}
    assert row1 == {1: 1} and combo1 == {"b": Fraction(1, 4)}
    rep = red.solve({0: 4, 1: 10})
    assert rep == {"a": 2, "b": 1}
    assert all(type(c) is int for c in rep.values())


def test_bases_and_kernel_coefficients_are_int_at_degree_4():
    """Guards the integer fast path: a stray Fraction literal on these
    routes would show up here as a Fraction-typed value."""
    cases = {
        "bar_basis(4)": [p.terms for p in bar_basis(4)],
        "bar0_basis(4)": [p.terms for p in bar0_basis(4)],
        "wedge coordinates": wedge_relation_space().coords.values(),
    }
    for d in ("1x2", "2x1"):
        cases[f"omega_decomposition(4, {d})"] = [
            p.terms for p in omega_decomposition(4, d).values()]
        cases[f"omega_power(4, {d})"] = [omega_power(4, d)]
    for name, dicts in cases.items():
        seen = [c for vec in dicts for c in vec.values()]
        assert seen, name
        assert all(type(c) is int for c in seen), name
