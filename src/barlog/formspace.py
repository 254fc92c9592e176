"""The five logarithmic one-forms and the reduced bar algebra.

The letters of the base form alphabet are interpreted as one-forms on
(z1, z2):

    z1   -> dz1/z1            z11  -> dz1/(1-z1)
    z2   -> dz2/z2            z22  -> dz2/(1-z2)
    z12  -> d(z1*z2)/(1-z1*z2)

together with the projected letters z12_1 = z2*dz1/(1-z1*z2) and
z12_2 = z1*dz2/(1-z1*z2), with z12 = z12_1 + z12_2.

From these the module derives, by exact linear algebra on polynomial
numerators, the relation space of the ten wedge products, the adjacent
cut defects of Chen's integrability condition, and canonical bases of
the integrable subspaces of each degree (the reduced bar algebra) and
of their subspaces spanned by combinations with no word ending in z1
or z2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ResourceLimitError
from .linalg import RowReducer, canonical_basis, nullspace_combos
from .words import FORM_BASE, WordPoly

DEFAULT_DEGREE_CAP = 6

# -- bivariate polynomials: {(i, j): coeff} for z1^i z2^j ---------------

P_ONE = {(0, 0): Fraction(1)}


def p_add(a, b, coeff=1):
    out = dict(a)
    coeff = Fraction(coeff)
    for m, c in b.items():
        v = out.get(m, Fraction(0)) + coeff * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def p_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            m = (i1 + i2, j1 + j2)
            v = out.get(m, Fraction(0)) + c1 * c2
            if not v:
                out.pop(m, None)
            else:
                out[m] = v
    return out


def p_scale(a, coeff):
    coeff = Fraction(coeff)
    if not coeff:
        return {}
    return {m: c * coeff for m, c in a.items()}


def p_eval(a, z1, z2):
    return sum(complex(c) * z1 ** i * z2 ** j for (i, j), c in a.items())


class RationalFunction2:
    """A fraction of bivariate polynomials with exact coefficients."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = {m: Fraction(c) for m, c in num.items() if c}
        self.den = dict(P_ONE) if den is None else \
            {m: Fraction(c) for m, c in den.items() if c}
        if not self.den:
            raise ZeroDivisionError("zero denominator")

    @classmethod
    def zero(cls):
        return cls({})

    def is_zero(self):
        return not self.num

    def __add__(self, other):
        return RationalFunction2(
            p_add(p_mul(self.num, other.den), p_mul(other.num, self.den)),
            p_mul(self.den, other.den))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        return RationalFunction2(p_mul(self.num, other.num),
                                 p_mul(self.den, other.den))

    def scale(self, coeff):
        return RationalFunction2(p_scale(self.num, coeff), self.den)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction2):
            return NotImplemented
        return p_add(p_mul(self.num, other.den),
                     p_mul(other.num, self.den), -1) == {}

    def __hash__(self):
        raise TypeError("RationalFunction2 is unhashable")

    def evaluate(self, z1, z2):
        return p_eval(self.num, z1, z2) / p_eval(self.den, z1, z2)

    def __repr__(self):
        return f"RationalFunction2({self.num!r}, {self.den!r})"


# -- the one-forms ------------------------------------------------------

_ATOMS = {
    "z1": {(1, 0): Fraction(1)},
    "1-z1": {(0, 0): Fraction(1), (1, 0): Fraction(-1)},
    "z2": {(0, 1): Fraction(1)},
    "1-z2": {(0, 0): Fraction(1), (0, 1): Fraction(-1)},
    "1-z1z2": {(0, 0): Fraction(1), (1, 1): Fraction(-1)},
}

# Each dz-component of a letter is numerator/atom (or absent).
_FORM_COMPONENTS = {
    "z1": (({(0, 0): Fraction(1)}, "z1"), None),
    "z11": (({(0, 0): Fraction(1)}, "1-z1"), None),
    "z2": (None, ({(0, 0): Fraction(1)}, "z2")),
    "z22": (None, ({(0, 0): Fraction(1)}, "1-z2")),
    "z12": ((({(0, 1): Fraction(1)}), "1-z1z2"),
            (({(1, 0): Fraction(1)}), "1-z1z2")),
    "z12_1": (({(0, 1): Fraction(1)}, "1-z1z2"), None),
    "z12_2": (None, ({(1, 0): Fraction(1)}, "1-z1z2")),
}


@dataclass(frozen=True)
class OneForm:
    coeff_dz1: RationalFunction2
    coeff_dz2: RationalFunction2


def _component_rf(component):
    if component is None:
        return RationalFunction2.zero()
    num, atom = component
    return RationalFunction2(num, _ATOMS[atom])


FORMS = {tag: OneForm(_component_rf(c1), _component_rf(c2))
         for tag, (c1, c2) in _FORM_COMPONENTS.items()}


def wedge(a, b):
    """The coefficient of dz1^dz2 in a ^ b."""
    return (a.coeff_dz1 * b.coeff_dz2) - (a.coeff_dz2 * b.coeff_dz1)


# The common denominator of all pairwise wedges, as a multiset of atoms:
# each dz1-component denominator divides z1(1-z1)(1-z1z2) and each
# dz2-component denominator divides z2(1-z2)(1-z1z2).
_WEDGE_DEN_ATOMS = ("z1", "1-z1", "z2", "1-z2", "1-z1z2", "1-z1z2")


def _wedge_numerator(tag_a, tag_b):
    """Polynomial numerator of wedge(a, b) over the fixed common
    denominator above."""

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
    return p_add(cross(a1, b2), cross(b1, a2), -1)


@dataclass(frozen=True)
class WedgeSpace:
    """The span of the ten pairwise wedges of the base letters.

    pairs: the ordered pairs (a, b), a before b in alphabet order.
    dimension: rank of the span.
    relations: a basis of the relation space, each a {pair: coeff} dict.
    basis_pairs: pairs whose wedges form a basis of the span.
    coords: {(a, b): {basis slot: coeff}} for every ordered pair of
        letters (antisymmetric, zero on the diagonal).
    """
    pairs: tuple
    dimension: int
    relations: tuple
    basis_pairs: tuple
    coords: dict


_WEDGE_SPACE = None


def wedge_relation_space():
    global _WEDGE_SPACE
    if _WEDGE_SPACE is not None:
        return _WEDGE_SPACE

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

    solver = RowReducer()
    for slot, pair in enumerate(basis_pairs):
        solver.add(numerators[pair], slot)

    coords = {}
    for a in FORM_BASE:
        coords[(a, a)] = {}
    for pair in pairs:
        rep = solver.solve(numerators[pair])
        coords[pair] = {slot: c for slot, c in rep.items() if c}
        coords[(pair[1], pair[0])] = {slot: -c for slot, c in rep.items() if c}

    _WEDGE_SPACE = WedgeSpace(
        pairs=pairs,
        dimension=len(basis_pairs),
        relations=tuple(relations),
        basis_pairs=tuple(basis_pairs),
        coords=coords,
    )
    return _WEDGE_SPACE


def relation_space_contains(candidate):
    """Check a {pair: coeff} combination of wedges for vanishing."""
    acc = {}
    for (a, b), coeff in candidate.items():
        if a == b:
            continue
        key = (a, b) if FORM_BASE.index(a) < FORM_BASE.index(b) else (b, a)
        sign = 1 if key == (a, b) else -1
        vec = _wedge_numerator(*key)
        for m, c in vec.items():
            v = acc.get(m, Fraction(0)) + sign * Fraction(coeff) * c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
    return not acc


# -- Chen's integrability condition -------------------------------------

def chen_defect(p, l):
    """Coordinates of the cut-l wedge contraction of a homogeneous
    iterated form, as {(prefix, slot, suffix): coeff}."""
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
    out = {}
    for w, c in p.terms.items():
        prefix, suffix = w[:l - 1], w[l + 1:]
        for slot, x in coords[(w[l - 1], w[l])].items():
            key = (prefix, slot, suffix)
            v = out.get(key, Fraction(0)) + c * x
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def is_integrable(p):
    """True if every homogeneous part of p satisfies Chen's
    integrability condition at every cut."""
    for s, part in p.degree_parts().items():
        for l in range(1, s):
            if chen_defect(part, l):
                return False
    return True


# -- bar algebra bases ---------------------------------------------------

_LETTER_INDEX = {a: i for i, a in enumerate(FORM_BASE)}

_BAR_CACHE = {}
_BAR0_CACHE = {}


def _word_key(word):
    return tuple(_LETTER_INDEX[x] for x in word)


def _poly_vector(p):
    return {_word_key(w): c for w, c in p.terms.items()}


def _vector_poly(vec, s):
    terms = {tuple(FORM_BASE[i] for i in key): c for key, c in vec.items()}
    return WordPoly(FORM_BASE, terms)


def check_degree(s, cap=None):
    """Raise ValueError for a negative degree s, and ResourceLimitError
    when s exceeds the cap (the default cap when cap is None)."""
    if s < 0:
        raise ValueError("degree must be nonnegative")
    if cap is None:
        cap = DEFAULT_DEGREE_CAP
    if s > cap:
        raise ResourceLimitError(f"degree {s} exceeds cap {cap}")


def bar_basis(s, cap=None):
    """Canonical basis of the degree-s integrable subspace.

    Computed recursively: the degree-s space sits inside
    (letters) o (degree s-1 space), where only the first cut condition
    is not yet automatic; its kernel is extracted exactly and put into
    reduced row echelon form over the lexicographic word order.
    """
    check_degree(s, cap)
    if s in _BAR_CACHE:
        return _BAR_CACHE[s]
    if s == 0:
        basis = [WordPoly.unit(FORM_BASE)]
    elif s == 1:
        basis = [WordPoly.monomial(FORM_BASE, (a,)) for a in FORM_BASE]
    else:
        prev = bar_basis(s - 1, cap=cap)
        coords = wedge_relation_space().coords
        candidates = []
        defects = []
        for a in FORM_BASE:
            for b in prev:
                candidates.append(WordPoly(
                    FORM_BASE, {(a,) + w: c for w, c in b.terms.items()}))
                defect = {}
                for w, c in b.terms.items():
                    for slot, x in coords[(a, w[0])].items():
                        key = (slot, _word_key(w[1:]))
                        v = defect.get(key, Fraction(0)) + c * x
                        if v:
                            defect[key] = v
                        else:
                            defect.pop(key, None)
                defects.append(defect)
        combos = nullspace_combos(defects)
        kernel_vectors = []
        for combo in combos:
            vec = {}
            for idx, coeff in combo.items():
                for key, c in _poly_vector(candidates[idx]).items():
                    v = vec.get(key, Fraction(0)) + coeff * c
                    if v:
                        vec[key] = v
                    else:
                        vec.pop(key, None)
            kernel_vectors.append(vec)
        basis = [_vector_poly(vec, s) for vec in canonical_basis(kernel_vectors)]
    _BAR_CACHE[s] = basis
    return basis


def bar0_basis(s, cap=None):
    """Canonical basis of the subspace of bar_basis(s) spanned by
    combinations with no word ending in z1 or z2."""
    check_degree(s, cap)
    if s in _BAR0_CACHE:
        return _BAR0_CACHE[s]
    basis = bar_basis(s, cap=cap)
    if s == 0:
        result = list(basis)
    else:
        restrictions = []
        for b in basis:
            vec = {_word_key(w): c for w, c in b.terms.items()
                   if w[-1] in ("z1", "z2")}
            restrictions.append(vec)
        combos = nullspace_combos(restrictions)
        vectors = []
        for combo in combos:
            vec = {}
            for idx, coeff in combo.items():
                for key, c in _poly_vector(basis[idx]).items():
                    v = vec.get(key, Fraction(0)) + coeff * c
                    if v:
                        vec[key] = v
                    else:
                        vec.pop(key, None)
            vectors.append(vec)
        result = [_vector_poly(vec, s) for vec in canonical_basis(vectors)]
    _BAR0_CACHE[s] = result
    return result


def in_bar_span(p, cap=None):
    """True if every homogeneous part of p lies in the span of the
    corresponding bar basis."""
    for s, part in p.degree_parts().items():
        red = RowReducer()
        for i, b in enumerate(bar_basis(s, cap=cap)):
            red.add(_poly_vector(b), i)
        if not red.contains(_poly_vector(part)):
            return False
    return True
