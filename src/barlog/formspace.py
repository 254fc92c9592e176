"""The five logarithmic one-forms and the reduced bar algebra.

The letters of the base form alphabet are interpreted as one-forms on
(z1, z2):

    z1   -> dz1/z1            z11  -> dz1/(1-z1)
    z2   -> dz2/z2            z22  -> dz2/(1-z2)
    z12  -> d(z1*z2)/(1-z1*z2)

together with the projected letters z12_1 = z2*dz1/(1-z1*z2) and
z12_2 = z1*dz2/(1-z1*z2), with z12 = z12_1 + z12_2.  Each letter is
held once, exactly, as its dz1 and dz2 components (a polynomial
numerator over one atom), the one definition of the forms: the wedge
of two letters is the polynomial numerator of a1*b2 - a2*b1 over one
common denominator, and the quadrature oracle integrates them.

From these the module derives, by exact linear algebra on polynomial
numerators, the relation space of the ten wedge products and the
adjacent cut defects of Chen's integrability condition.  The canonical
bases of the reduced bar algebra (bar_basis) and of its part with no
word ending in z1 or z2 (bar0_basis) are read, as fibre times base of
M_{0,5} over M_{0,4}, from one place: the certified rows K_p of the
word rewriting in duality, all of them for bar_basis and the
admissible ones (the kernel coefficients phi(W', W'')) for bar0_basis.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .duality import certified_kernel, certified_rows
from .ipbenv import check_degree
from .linalg import RowReducer, canonical_basis, vec_add_into
from .words import FORM_BASE, WordPoly, _check_letters

# -- bivariate polynomials: {(i, j): coeff} for z1^i z2^j ---------------

def p_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        vec_add_into(out, {(i1 + i2, j1 + j2): c2
                           for (i2, j2), c2 in b.items()}, c1)
    return out


# -- the one-forms ------------------------------------------------------

_ATOMS = {
    "z1": {(1, 0): 1},
    "1-z1": {(0, 0): 1, (1, 0): -1},
    "z2": {(0, 1): 1},
    "1-z2": {(0, 0): 1, (0, 1): -1},
    "1-z1z2": {(0, 0): 1, (1, 1): -1},
}

# Each dz-component of a letter is numerator/atom (or absent).
_FORM_COMPONENTS = {
    "z1": (({(0, 0): 1}, "z1"), None),
    "z11": (({(0, 0): 1}, "1-z1"), None),
    "z2": (None, ({(0, 0): 1}, "z2")),
    "z22": (None, ({(0, 0): 1}, "1-z2")),
    "z12": (({(0, 1): 1}, "1-z1z2"), ({(1, 0): 1}, "1-z1z2")),
    "z12_1": (({(0, 1): 1}, "1-z1z2"), None),
    "z12_2": (None, ({(1, 0): 1}, "1-z1z2")),
}


# The common denominator of all pairwise wedges, as a multiset of atoms:
# each dz1-component denominator divides z1(1-z1)(1-z1z2) and each
# dz2-component denominator divides z2(1-z2)(1-z1z2).
_WEDGE_DEN_ATOMS = ("z1", "1-z1", "z2", "1-z2", "1-z1z2", "1-z1z2")


def _wedge_numerator(tag_a, tag_b):
    """Polynomial numerator of the dz1^dz2 coefficient of a ^ b over
    the fixed common denominator above."""

    def cross(comp1, comp2):
        if comp1 is None or comp2 is None:
            return {}
        (num1, atom1), (num2, atom2) = comp1, comp2
        remaining = list(_WEDGE_DEN_ATOMS)
        remaining.remove(atom1)
        remaining.remove(atom2)
        out = p_mul(num1, num2)
        for atom in remaining:
            out = p_mul(out, _ATOMS[atom])
        return out

    a1, a2 = _FORM_COMPONENTS[tag_a]
    b1, b2 = _FORM_COMPONENTS[tag_b]
    return vec_add_into(cross(a1, b2), cross(b1, a2), -1)


class WedgeSpace(namedtuple(
        "WedgeSpace", "pairs dimension relations basis_pairs coords")):
    """The span of the ten pairwise wedges of the base letters.

    pairs: the ordered pairs (a, b), a before b in alphabet order.
    dimension: rank of the span.
    relations: a basis of the relation space, each a {pair: coeff} dict.
    basis_pairs: pairs whose wedges form a basis of the span.
    coords: {(a, b): {basis slot: coeff}} for every ordered pair of
        letters (antisymmetric, zero on the diagonal).
    """
    __slots__ = ()


@cache
def wedge_relation_space():
    pairs = tuple((a, b)
                  for i, a in enumerate(FORM_BASE)
                  for b in FORM_BASE[i + 1:])
    numerators = {pair: _wedge_numerator(*pair) for pair in pairs}

    red = RowReducer()
    relations = []
    basis_pairs = []
    for pair in pairs:
        dep = red.add(numerators[pair], pair)
        if dep is None:
            basis_pairs.append(pair)
        else:
            relations.append(dict(dep))

    slots = {pair: slot for slot, pair in enumerate(basis_pairs)}
    coords = {}
    for a in FORM_BASE:
        coords[(a, a)] = {}
    for pair in pairs:
        rep = red.solve(numerators[pair])
        coords[pair] = {slots[p]: c for p, c in rep.items() if c}
        coords[(pair[1], pair[0])] = {s: -c for s, c in coords[pair].items()}

    return WedgeSpace(
        pairs=pairs,
        dimension=len(basis_pairs),
        relations=tuple(relations),
        basis_pairs=tuple(basis_pairs),
        coords=coords,
    )


def relation_space_contains(candidate):
    """Check a {pair: coeff} combination of wedges of base letters for
    vanishing: its coordinates over a basis of the span cancel.
    AlphabetError names a letter outside FORM_BASE."""
    _check_letters(FORM_BASE, candidate)
    coords = wedge_relation_space().coords
    acc = {}
    for pair, coeff in candidate.items():
        vec_add_into(acc, coords[pair], coeff)
    return not acc


# -- Chen's integrability condition -------------------------------------

def chen_defect(p, l):
    """Coordinates of the cut-l wedge contraction of a homogeneous
    iterated form, as {(prefix, slot, suffix): coeff}.  AlphabetError
    names a letter outside FORM_BASE."""
    _check_letters(FORM_BASE, p.terms)
    if not p.terms:
        return {}
    degrees = {len(w) for w in p.terms}
    if len(degrees) != 1:
        raise ValueError("chen_defect requires a homogeneous polynomial")
    s = degrees.pop()
    if s < 2:
        raise ValueError("chen_defect requires degree >= 2")
    if not 1 <= l < s:
        raise ValueError(f"cut position {l} out of range for degree {s}")
    coords = wedge_relation_space().coords
    by_cut = {}
    for w, c in p.terms.items():
        vec_add_into(by_cut.setdefault((w[:l - 1], w[l + 1:]), {}),
                     coords[(w[l - 1], w[l])], c)
    return {(prefix, slot, suffix): x
            for (prefix, suffix), vec in by_cut.items()
            for slot, x in vec.items()}


def _chen_failure(p):
    """The first (degree, cut) at which a homogeneous part of p fails
    Chen's integrability condition, or None."""
    for s, part in p.degree_parts().items():
        for l in range(1, s):
            if chen_defect(part, l):
                return s, l
    return None


def is_integrable(p):
    """True if every homogeneous part of p satisfies Chen's
    integrability condition at every cut.  AlphabetError names a letter
    outside FORM_BASE."""
    _check_letters(FORM_BASE, p.terms)
    return _chen_failure(p) is None


# -- bar algebra bases ---------------------------------------------------

_LETTER_INDEX = {a: i for i, a in enumerate(FORM_BASE)}


def _word_key(word):
    return tuple(_LETTER_INDEX[x] for x in word)


def _poly_vector(p):
    return {_word_key(w): c for w, c in p.terms.items()}


def _vector_poly(vec):
    terms = {tuple(FORM_BASE[i] for i in key): c for key, c in vec.items()}
    return WordPoly(FORM_BASE, terms)


def _canonical_polys(polys):
    """RREF basis of the span of homogeneous polynomials over the
    letter-order word keys.  Fed in descending order of leading word,
    the elimination takes about half the time it takes in input order."""
    vectors = sorted((_poly_vector(p) for p in polys), key=min,
                     reverse=True)
    return [_vector_poly(vec) for vec in canonical_basis(vectors)]


def bar_basis(s, cap=None):
    """Canonical basis of the degree-s integrable subspace: the reduced
    row echelon form, over the lexicographic word order, of the rows K_p
    of all product pairs (duality.certified_rows).  Their splittings are
    distinct theta monomials, so the rows are independent and the
    dimension is the number of product pairs, 3^(s+1) - 2^(s+1)."""
    check_degree(s, cap)
    return _bar_basis(s)


@cache
def _bar_basis(s):
    return _canonical_polys(certified_rows(s, "1x2", s).values())


def bar0_basis(s, cap=None):
    """Canonical basis of the subspace of bar_basis(s) spanned by
    combinations with no word ending in z1 or z2: the span of the
    kernel coefficients phi(W', W'') of the admissible 1x2 pairs, once
    duality.certified_kernel has certified them (BarlogError naming the
    pair if a coefficient does not split)."""
    check_degree(s, cap)
    return _bar0_basis(s)


@cache
def _bar0_basis(s):
    return _canonical_polys(certified_kernel(s, "1x2", s).values())
