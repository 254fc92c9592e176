"""The duality between the integrable forms and the product bases of
the enveloping algebra: the letterwise theta substitution, the tensor
splitting isomorphisms iota (deconcatenation followed by the two
letter projections), their inverses by exact linear solve against the
bar bases, and the canonical integrable representative phi(W', W'')
of a product-basis pair, read from the decomposition of the solution
kernel and certified by its splitting.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .errors import (AlphabetError, BarlogError, DomainError,
                     NotInImageError)
from .formspace import _chen_failure, bar_basis, is_integrable
from .ipbenv import omega_decomposition
from .linalg import RowReducer, vec_add_into
from .words import (FORM_BASE, FORM_MAIN1, FORM_MAIN2, FORM_PURE1,
                    FORM_PURE2, TensorPoly, WordPoly)


class FormDirection(namedtuple(
        "FormDirection", "name left_alphabet right_alphabet left_map "
        "right_map theta_left theta_right")):
    """Alphabet bookkeeping for one tensor splitting.

    left_map and right_map send each base letter to its projected letter,
    or to None to kill it; theta_left and theta_right send each Z letter
    to its projected form letter.  The z12 letter always lands in the
    left factor (as its projected variant); in the right factor it
    projects to zero, as forced by the right factor's alphabet and the
    shape of the reference relation reproduced in the test suite.
    """
    __slots__ = ()


FORM_DIRECTIONS = {
    "1x2": FormDirection(
        name="1x2",
        left_alphabet=FORM_MAIN1,
        right_alphabet=FORM_PURE2,
        left_map={"z1": "z1", "z11": "z11", "z12": "z12_1",
                  "z2": None, "z22": None},
        right_map={"z2": "z2", "z22": "z22",
                   "z1": None, "z11": None, "z12": None},
        theta_left={"Z1": "z1", "Z11": "z11", "Z12": "z12_1"},
        theta_right={"Z2": "z2", "Z22": "z22"},
    ),
    "2x1": FormDirection(
        name="2x1",
        left_alphabet=FORM_MAIN2,
        right_alphabet=FORM_PURE1,
        left_map={"z2": "z2", "z22": "z22", "z12": "z12_2",
                  "z1": None, "z11": None},
        right_map={"z1": "z1", "z11": "z11",
                   "z2": None, "z22": None, "z12": None},
        theta_left={"Z2": "z2", "Z22": "z22", "Z12": "z12_2"},
        theta_right={"Z1": "z1", "Z11": "z11"},
    ),
}


def _as_form_direction(direction):
    if isinstance(direction, FormDirection):
        return direction
    return FORM_DIRECTIONS[direction]


def theta(word, direction="1x2", side="left"):
    """Letterwise displacement of Z letters to form letters for one
    factor of the given splitting."""
    d = _as_form_direction(direction)
    table = d.theta_left if side == "left" else d.theta_right
    out = []
    for x in word:
        if x not in table:
            raise AlphabetError(
                f"letter {x!r} not in the {side} factor of {d.name}")
        out.append(table[x])
    return tuple(out)


def iota(p, direction="1x2"):
    """Tensor splitting of an integrable form polynomial: Chen's
    condition (DomainError naming the first failing degree and cut),
    then tensor_split(p, direction)."""
    if failure := _chen_failure(p):
        raise DomainError(
            "polynomial does not satisfy the integrability condition "
            "at degree %d, cut %d" % failure)
    return tensor_split(p, direction)


def tensor_split(p, direction="1x2"):
    """Sum over the deconcatenation cuts of (left projection) x (right
    projection), without the integrability check of iota.  Each word
    is projected once per side; its surviving cuts run from just after
    the last right-killed letter to the first left-killed one."""
    d = _as_form_direction(direction)
    acc = {}
    for w, c in p.terms.items():
        left = [d.left_map[x] for x in w] + [None]
        right = [None] + [d.right_map[x] for x in w]
        first, last = len(w) - right[::-1].index(None), left.index(None)
        vec_add_into(acc, {(tuple(left[:l]), tuple(right[l + 1:])): 1
                           for l in range(first, last + 1)}, c)
    return TensorPoly(d.left_alphabet, d.right_alphabet, acc)


# -- inverse by linear solve ----------------------------------------------

def _tensor_key(d, w1, w2):
    li = {a: i for i, a in enumerate(d.left_alphabet)}
    ri = {a: i for i, a in enumerate(d.right_alphabet)}
    return ((len(w1), tuple(li[x] for x in w1)),
            (len(w2), tuple(ri[x] for x in w2)))


def _tensor_vector(d, t):
    return {_tensor_key(d, w1, w2): c for (w1, w2), c in t.terms.items()}


@cache
def _iota_solver(direction, s, cap=None):
    """(reducer over the splittings of bar_basis(s), that basis) for
    the named direction; the cap is part of the cache key, so a cached
    solver never slips past a lower cap."""
    d = FORM_DIRECTIONS[direction]
    basis = bar_basis(s, cap=cap)
    red = RowReducer()
    for i, b in enumerate(basis):
        dep = red.add(_tensor_vector(d, iota(b, d)), i)
        if dep is not None:
            raise BarlogError(
                "tensor splitting is not injective on the basis")
    return red, basis


def iota_rank(direction, s, cap=None):
    """Rank of the tensor splitting restricted to the degree-s basis."""
    red, basis = _iota_solver(_as_form_direction(direction).name, s, cap)
    return red.rank, len(basis)


def iota_inv(t, direction="1x2", cap=None):
    """The unique integrable preimage of a tensor polynomial, solved
    exactly degree by degree against the bar basis.  That basis comes
    from the kernel decomposition, so this is no independent check of phi."""
    d = _as_form_direction(direction)
    acc = {}
    for s, part in t.degree_parts().items():
        red, basis = _iota_solver(d.name, s, cap)
        rep = red.solve(_tensor_vector(d, part))
        if rep is None:
            raise NotInImageError(
                f"no integrable preimage at degree {s} for {d.name}")
        for i, c in rep.items():
            vec_add_into(acc, basis[i].terms, c)
    return WordPoly(FORM_BASE, acc)


def splits_as_pair(p, w1, w2, direction="1x2"):
    """Whether p is integrable and its tensor splitting is exactly the
    theta monomial theta(W') x theta(W'') of the pair."""
    d = _as_form_direction(direction)
    t = TensorPoly.monomial(d.left_alphabet, d.right_alphabet,
                            theta(w1, d, "left"), theta(w2, d, "right"))
    return is_integrable(p) and tensor_split(p, d) == t


def phi(w1, w2, direction="1x2", cap=None):
    """The integrable representative of a product-basis pair: the
    preimage of theta(W') x theta(W'') under the splitting.

    By the tensor splitting of the normalized fundamental solution it
    is the pair's coefficient in the kernel decomposition; the
    coefficient is returned only once its splitting is checked."""
    d = _as_form_direction(direction)
    w1, w2 = tuple(w1), tuple(w2)
    for w in (w1, w2):
        if w and w[-1] in ("Z1", "Z2"):
            raise ValueError(f"word {w} ends in Z1/Z2 and is not allowed")
    # Letters outside the splitting raise AlphabetError before any
    # kernel is built.
    theta(w1, d, "left"), theta(w2, d, "right")
    coeff = omega_decomposition(len(w1) + len(w2), d.name,
                                cap=cap)[(w1, w2)]
    if not splits_as_pair(coeff, w1, w2, d):
        raise BarlogError(
            f"kernel coefficient of {(w1, w2)} in {d.name} does not "
            "split as its theta monomial")
    return coeff
