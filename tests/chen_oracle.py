"""Reference construction of the bar bases by Chen's condition, and
of the inverse splittings by linear solve against them.

The library builds bar0_basis from the kernel decomposition and
bar_basis from shuffles of it.  This module keeps the construction
that does not use the kernel at all, so the tests can check both bases,
and phi, against it: the degree-s space is the kernel of the first-cut
defect inside (letters) o (degree s-1 space), and the bar0 space is
the kernel of the projection onto words ending in z1 or z2.

The library inverts the tensor splittings by linearity from phi.  Here
a preimage is solved instead against the splittings of a whole basis,
so the tests can check iota_inv, and the rank of the splitting, by
plain linear algebra.
"""

from functools import cache

from barlog.duality import tensor_split
from barlog.formspace import _poly_vector, _vector_poly, _word_key, chen_defect
from barlog.ipbenv import DIRECTIONS
from barlog.linalg import RowReducer, canonical_basis, vec_add_into
from barlog.words import FORM_BASE, WordPoly


def nullspace_combos(vectors):
    """Dependencies among the given vectors.

    Returns a list of {input index: coefficient} dicts; each dict d
    satisfies sum(d[i] * vectors[i]) == 0 and the dicts are linearly
    independent (each has coefficient 1 on a distinct last index).
    """
    red = RowReducer()
    combos = []
    for i, vec in enumerate(vectors):
        dep = red.add(vec, i)
        if dep is not None:
            combos.append(dep)
    return combos


def _kernel_basis(polys, images):
    """Canonical basis of the combinations of polys whose images (one
    sparse vector per poly) cancel."""
    vectors = []
    for combo in nullspace_combos(images):
        vec = {}
        for idx, coeff in combo.items():
            vec_add_into(vec, _poly_vector(polys[idx]), coeff)
        vectors.append(vec)
    return [_vector_poly(vec) for vec in canonical_basis(vectors)]


@cache
def chen_bar_basis(s):
    """Canonical basis of the degree-s integrable subspace."""
    if s == 0:
        return [WordPoly.unit(FORM_BASE)]
    if s == 1:
        return [WordPoly.monomial(FORM_BASE, (a,)) for a in FORM_BASE]
    candidates = [WordPoly(FORM_BASE,
                           {(a,) + w: c for w, c in b.terms.items()})
                  for a in FORM_BASE for b in chen_bar_basis(s - 1)]
    return _kernel_basis(candidates, [
        {(slot, _word_key(suffix)): x
         for (_, slot, suffix), x in chen_defect(b, 1).items()}
        for b in candidates])


@cache
def chen_bar0_basis(s):
    """Canonical basis of the subspace of chen_bar_basis(s) spanned by
    combinations with no word ending in z1 or z2."""
    basis = chen_bar_basis(s)
    if s == 0:
        return list(basis)
    return _kernel_basis(basis, [
        {_word_key(w): c for w, c in b.terms.items() if w[-1] in ("z1", "z2")}
        for b in basis])


@cache
def splitting_solver(direction, s, basis=chen_bar_basis):
    """Reducer over the splittings of basis(s) in the named direction,
    each tagged by its index in the basis: its rank is len(basis(s))
    exactly when the splitting is injective on the basis."""
    d = DIRECTIONS[direction]
    red = RowReducer()
    for i, b in enumerate(basis(s)):
        red.add(tensor_split(b, d), i)
    return red


def splitting_preimage(t, direction, basis=chen_bar_basis):
    """The preimage of a tensor {(W', W''): coeff}, solved degree by
    degree against the splittings of basis; None when t leaves their
    span."""
    parts = {}
    for (w1, w2), c in t.items():
        parts.setdefault(len(w1) + len(w2), {})[w1, w2] = c
    acc = {}
    for s, part in sorted(parts.items()):
        rep = splitting_solver(direction, s, basis).solve(part)
        if rep is None:
            return None
        for i, c in rep.items():
            vec_add_into(acc, basis(s)[i].terms, c)
    return WordPoly(FORM_BASE, acc)
