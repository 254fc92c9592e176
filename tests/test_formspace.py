import math
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlog.errors import AlphabetError, BarlogError, ResourceLimitError
from barlog.formspace import (_FORM_COMPONENTS, _WEDGE_DEN_ATOMS,
                              _poly_vector, _wedge_numerator,
                              bar0_basis, bar_basis,
                              chen_defect, is_integrable,
                              relation_space_contains, wedge_relation_space)
from barlog.linalg import RowReducer, vec_add_into
from barlog.quadrature import _form_pullback
from barlog.words import FORM_BASE, WordPoly, shuffle
from chen_oracle import chen_bar0_basis, chen_bar_basis

# The four relations spanning the kernel of the wedge map: the two
# mixed-variable quadratic relations and the two same-variable
# degeneracies.
ARNOLD_1 = {("z22", "z11"): 1, ("z11", "z12"): 1,
            ("z12", "z22"): 1, ("z12", "z2"): 1}
ARNOLD_2 = {("z1", "z12"): 1, ("z2", "z12"): 1}
DEGEN_1 = {("z1", "z11"): 1}
DEGEN_2 = {("z2", "z22"): 1}


def test_wedge_dimension():
    ws = wedge_relation_space()
    assert len(ws.pairs) == 10
    assert ws.dimension == 6
    assert len(ws.relations) == 4


def test_known_relations_span_relation_space():
    known = [ARNOLD_1, ARNOLD_2, DEGEN_1, DEGEN_2]
    for rel in known:
        assert relation_space_contains(rel)
    # The four relations are independent, so they span the whole
    # 4-dimensional relation space.
    ordered = {}
    for i, a in enumerate(FORM_BASE):
        for b in FORM_BASE[i + 1:]:
            ordered[(a, b)] = (a, b)
    red = RowReducer()
    count = 0
    for rel in known:
        vec = {}
        for (a, b), c in rel.items():
            if (a, b) in ordered:
                vec[(a, b)] = vec.get((a, b), 0) + c
            else:
                vec[(b, a)] = vec.get((b, a), 0) - c
        if red.add(vec, count) is None:
            count += 1
    assert count == 4


def test_relation_space_contains_rejects_non_relations_and_stray_letters():
    # z1 ^ z2 is dz1/z1 ^ dz2/z2, which does not vanish; the same pair
    # in both orders, and a pair on the diagonal, do.
    assert not relation_space_contains({("z1", "z2"): 1})
    assert not relation_space_contains({**ARNOLD_2, ("z2", "z12"): 2})
    assert relation_space_contains({("z1", "z2"): 2, ("z2", "z1"): 2,
                                    ("z12", "z12"): 5})
    with pytest.raises(AlphabetError, match="'z12_1'"):
        relation_space_contains({("z1", "z12_1"): 1})


ATOM_VALUES = {
    "z1": lambda z1, z2: z1,
    "1-z1": lambda z1, z2: 1 - z1,
    "z2": lambda z1, z2: z2,
    "1-z2": lambda z1, z2: 1 - z2,
    "1-z1z2": lambda z1, z2: 1 - z1 * z2,
}


@pytest.mark.parametrize("z1, z2", [(0.3, 0.4), (0.35 + 0.2j, -0.5 + 0.1j),
                                    (-0.7j, 0.6 - 0.45j)],
                         ids=["real", "complex", "imaginary"])
def test_wedge_numerator_matches_the_pulled_back_forms(z1, z2):
    """The exact numerator over the common denominator agrees with
    a1*b2 - a2*b1 built from the quadrature's own table of the forms."""
    den = math.prod(ATOM_VALUES[atom](z1, z2) for atom in _WEDGE_DEN_ATOMS)

    def dz(tag):
        return (complex(_form_pullback(tag, z1, z2, 1, 0)),
                complex(_form_pullback(tag, z1, z2, 0, 1)))

    for a in _FORM_COMPONENTS:
        for b in _FORM_COMPONENTS:
            value = sum(complex(c) * z1 ** i * z2 ** j
                        for (i, j), c in _wedge_numerator(a, b).items())
            (a1, a2), (b1, b2) = dz(a), dz(b)
            expected = a1 * b2 - a2 * b1
            assert abs(value / den - expected) <= 1e-13 * max(
                1.0, abs(expected)), (a, b)


def test_wedge_numerator_exact_cases():
    # z1 ^ z11 = dz1/z1 ^ dz1/(1-z1) = 0.
    assert _wedge_numerator("z1", "z11") == {}
    # z12 = z12_1 + z12_2, so its wedge with any letter splits too.
    for b in _FORM_COMPONENTS:
        split = vec_add_into(dict(_wedge_numerator("z12_1", b)),
                             _wedge_numerator("z12_2", b))
        assert _wedge_numerator("z12", b) == split, b


def test_chen_defect_errors():
    inhomog = WordPoly(FORM_BASE, {("z1",): 1, ("z1", "z2"): 1})
    with pytest.raises(ValueError):
        chen_defect(inhomog, 1)
    word = WordPoly.monomial(FORM_BASE, ("z1", "z2"))
    with pytest.raises(ValueError):
        chen_defect(word, 2)
    with pytest.raises(ValueError, match="degree >= 2"):
        chen_defect(WordPoly.monomial(FORM_BASE, ("z1",)), 1)


def test_chen_defect_of_zero_is_empty():
    assert chen_defect(WordPoly.zero(FORM_BASE), 1) == {}


def test_bar_dimensions_low():
    assert len(bar_basis(0)) == 1
    assert len(bar_basis(1)) == 5
    assert len(bar_basis(2)) == 19
    assert len(bar_basis(3)) == 65
    assert len(bar0_basis(1)) == 3
    assert len(bar0_basis(2)) == 10
    assert len(bar0_basis(3)) == 32
    for s in range(5):
        assert len(bar_basis(s)) == 3 ** (s + 1) - 2 ** (s + 1)
        # bar = bar0 shuffled with z1^a z2^c, a + c = k: k + 1 ways.
        assert sum((k + 1) * len(bar0_basis(s - k))
                   for k in range(s + 1)) == len(bar_basis(s))


@pytest.mark.parametrize("s", range(5))
def test_bases_match_the_chen_oracle(s):
    """Both bases, built from the kernel decomposition, equal the
    canonical bases of the Chen-condition nullspace."""
    assert bar0_basis(s) == chen_bar0_basis(s)
    assert bar_basis(s) == chen_bar_basis(s)


def test_bar0_certifies_each_kernel_coefficient(monkeypatch):
    # The bases read the kernel coefficients through phi, the one gate
    # that certifies them.
    from barlog import duality, formspace

    decomposition = dict(duality.omega_decomposition(2, "1x2"))
    pair = (("Z11", "Z12"), ())
    # z2 z1 fails Chen's condition and splits to zero in 1x2.
    decomposition[pair] = decomposition[pair] + _m("z2", "z1")
    monkeypatch.setattr(duality, "omega_decomposition",
                        lambda s, direction, cap=None: decomposition)
    caches = (duality._certified_kernel, formspace._bar0_generators,
              formspace._bar0_basis, formspace._bar_basis)
    for cached in caches:
        cached.cache_clear()
    try:
        for basis in (bar0_basis, bar_basis):
            with pytest.raises(BarlogError, match="does not split"):
                basis(2)
    finally:
        for cached in caches:
            cached.cache_clear()


def test_bar_basis_is_integrable():
    for s in (2, 3):
        for b in bar_basis(s):
            assert is_integrable(b)
    for b in bar0_basis(2):
        assert is_integrable(b)
        assert all(w[-1] not in ("z1", "z2") for w in b.terms)


def test_bar_is_shuffle_closed():
    # B is a subalgebra under the shuffle product.
    for a in bar_basis(1)[:3]:
        for b in bar_basis(2)[:5]:
            assert is_integrable(shuffle(a, b))


def test_non_integrable_word():
    w = WordPoly.monomial(FORM_BASE, ("z1", "z2"))
    assert not is_integrable(w)


def test_is_integrable_answers():
    polys = [bar_basis(3)[0],
             shuffle(bar_basis(1)[0], bar_basis(2)[1]),
             _m("z1", "z2"),
             bar_basis(2)[0] + _m("z1", "z2", "z1")]
    assert [is_integrable(p) for p in polys] == [True, True, False, False]


@cache
def _chen_span_reducer(s):
    """Reducer over the Chen-condition basis of degree s."""
    red = RowReducer()
    for i, b in enumerate(chen_bar_basis(s)):
        red.add(_poly_vector(b), i)
    return red


@settings(max_examples=80, deadline=None)
@given(data=st.data(),
       degrees=st.sets(st.integers(0, 4), min_size=1, max_size=2),
       stray=st.one_of(st.none(),
                       st.lists(st.sampled_from(FORM_BASE), min_size=2,
                                max_size=4)))
def test_is_integrable_matches_the_chen_oracle(data, degrees, stray):
    """is_integrable, Chen's condition at every cut, agrees with
    membership in the span of the oracle basis, the recursive
    first-cut nullspace."""
    p = WordPoly.zero(FORM_BASE)
    for s in degrees:
        basis = chen_bar_basis(s)
        for i, c in data.draw(st.lists(
                st.tuples(st.integers(0, len(basis) - 1),
                          st.integers(-3, 3)), max_size=4)):
            p = p + basis[i].scale(c)
    if stray is not None:
        p = p + _m(*stray)
    expected = all(_chen_span_reducer(s).contains(_poly_vector(part))
                   for s, part in p.degree_parts().items())
    assert is_integrable(p) == expected


def test_degree_cap():
    with pytest.raises(ResourceLimitError):
        bar_basis(3, cap=2)
    # Cached bases: the cap is checked before the cache.
    for basis in (bar_basis, bar0_basis):
        basis(2)
        with pytest.raises(ResourceLimitError):
            basis(2, cap=1)
        with pytest.raises(ValueError, match="nonnegative"):
            basis(-1)


def _m(*letters):
    return WordPoly.monomial(FORM_BASE, letters)


def test_reference_degree2_basis_spans():
    """The 19 displayed degree-2 generators are integrable and span
    exactly the computed degree-2 space."""
    gens = []
    for a in FORM_BASE:
        gens.append(_m(a, a))
    gens.append(_m("z1", "z11"))
    gens.append(_m("z2", "z22"))
    gens.append(_m("z11", "z1"))
    gens.append(_m("z22", "z2"))
    for w1 in ("z1", "z11"):
        for w2 in ("z2", "z22"):
            gens.append(_m(w1, w2) + _m(w2, w1))
    for a in ("z1", "z11", "z2", "z22"):
        gens.append(_m(a, "z12") + _m("z12", a))
    gens.append(_m("z1", "z12") + _m("z2", "z12"))
    gens.append(_m("z11", "z12") + _m("z22", "z11")
                - _m("z22", "z12") - _m("z2", "z12"))
    assert len(gens) == 19
    red = RowReducer()
    for i, g in enumerate(gens):
        assert is_integrable(g)
        red.add(dict(g.terms), i)
    assert red.rank == 19 == len(bar_basis(2))
