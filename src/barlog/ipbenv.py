"""The quotient of the free algebra on Z1, Z11, Z2, Z22, Z12 by the
quadratic commutator relations

    [Z1,Z2] = [Z11,Z2] = [Z1,Z22] = 0,
    [Z11,Z22] = -[Z11,Z12] = [Z22,Z12] = -[Z1-Z2,Z12],

realized concretely by a terminating rewriting system onto the
product basis W' * W'' (left factor over one free subalgebra, right
factor over the complementary one), in either of the two directions.
Only 1x2 is written out; 2x1 is its image under the involution sigma
(z1 <-> z2), which preserves the relations.

Also provides the alpha action (Z1, Z2 act by commutator, the other
letters by left multiplication), the symbolic degree-s kernel of the
normalized fundamental solution, enumeration of the words not ending
in Z1 or Z2, and the degree cap.  The kernel's expansion over the
alpha images of the admissible pairs is a readout of the rewriting:
alpha(q) 1 = 0 for every non-admissible product word q, so the
coefficient of pair p at form word w is the coefficient of p in the
normal form of Z(w).
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from functools import cache

from .defaults import DEFAULT_DEGREE_CAP
from .errors import ResourceLimitError
from .linalg import vec_add_into
from .words import FORM_BASE, LIE_BASE, WordPoly, _check_letters


def check_degree(s, cap=None):
    """Raise TypeError for a degree or a cap that is not an integer,
    ValueError for a negative degree s, and ResourceLimitError when s
    exceeds the cap (the default cap when cap is None)."""
    s = operator.index(s)
    cap = DEFAULT_DEGREE_CAP if cap is None else operator.index(cap)
    if s < 0:
        raise ValueError("degree must be nonnegative")
    if s > cap:
        raise ResourceLimitError(f"degree {s} exceeds cap {cap}")


# The six quadratic relators generating the two-sided ideal, as
# {word: coeff} maps ([A,B] written out as AB - BA).
def _bracket(a, b):
    return {(a, b): 1, (b, a): -1}


RELATORS = (
    _bracket("Z1", "Z2"),
    _bracket("Z1", "Z22"),
    _bracket("Z11", "Z2"),
    vec_add_into(_bracket("Z11", "Z22"), _bracket("Z11", "Z12")),
    vec_add_into(_bracket("Z11", "Z22"), _bracket("Z12", "Z22")),
    vec_add_into(vec_add_into(_bracket("Z11", "Z22"), _bracket("Z1", "Z12")),
                 _bracket("Z2", "Z12"), -1),
)

_LIE = dict(zip(FORM_BASE, LIE_BASE))

# The involution sigma: z1 <-> z2, on the Lie letters and on the form
# letters.  It preserves the relators, the alpha action and the kernel,
# and exchanges the two splittings.
SIGMA = {"Z1": "Z2", "Z11": "Z22", "Z12": "Z12",
         "z1": "z2", "z11": "z22", "z12": "z12", "z12_1": "z12_2"}
SIGMA.update({v: k for k, v in SIGMA.items()})


def _sigma(word):
    return tuple(SIGMA[x] for x in word)


class Direction(namedtuple(
        "Direction", "name theta_left theta_right left_letters "
        "right_letters left_alphabet right_alphabet left_map right_map")):
    """One splitting, built from its theta maps (each factor's Z letters
    to their projected form letters).

    The letters and alphabets of the two factors are the keys and the
    values of the theta maps; left_map and right_map send each base
    form letter to its projected letter, or to None to kill it.  z12
    always lands in the left factor (as its projected variant) and
    projects to zero in the right one.
    """
    __slots__ = ()

    def __new__(cls, name, theta_left, theta_right):
        return super().__new__(
            cls, name, theta_left, theta_right,
            tuple(theta_left), tuple(theta_right),
            tuple(theta_left.values()), tuple(theta_right.values()),
            {x: theta_left.get(_LIE[x]) for x in FORM_BASE},
            {x: theta_right.get(_LIE[x]) for x in FORM_BASE})

    def __getnewargs__(self):
        return tuple(self[:3])

    def mirror(self, name):
        """The sigma image: both theta maps, keys and values."""
        return Direction(
            name, {SIGMA[k]: SIGMA[v] for k, v in self.theta_left.items()},
            {SIGMA[k]: SIGMA[v] for k, v in self.theta_right.items()})


_1X2 = Direction("1x2", {"Z1": "z1", "Z11": "z11", "Z12": "z12_1"},
                 {"Z2": "z2", "Z22": "z22"})
DIRECTIONS = {"1x2": _1X2, "2x1": _1X2.mirror("2x1")}

# The one rewriting system: (mover, target) -> the replacement of
# mover*target as a list of (word, coeff), moving Z2/Z22 rightwards past
# Z1/Z11/Z12 (1x2).  The tests derive each rule from the relators.
_RULES = {
    ("Z2", "Z1"): [(("Z1", "Z2"), 1)],
    ("Z2", "Z11"): [(("Z11", "Z2"), 1)],
    ("Z22", "Z1"): [(("Z1", "Z22"), 1)],
    # [Z2,Z12] = [Z1,Z12] - [Z11,Z12]
    ("Z2", "Z12"): [(("Z12", "Z2"), 1), (("Z1", "Z12"), 1),
                    (("Z12", "Z1"), -1), (("Z11", "Z12"), -1),
                    (("Z12", "Z11"), 1)],
    # [Z22,Z11] = -[Z11,Z22] = [Z11,Z12]
    ("Z22", "Z11"): [(("Z11", "Z22"), 1), (("Z11", "Z12"), 1),
                     (("Z12", "Z11"), -1)],
    # [Z22,Z12] = -[Z11,Z12]
    ("Z22", "Z12"): [(("Z12", "Z22"), 1), (("Z11", "Z12"), -1),
                     (("Z12", "Z11"), 1)],
}
_MOVERS = frozenset(_1X2.right_letters)


def _as_direction(direction):
    """The registered Direction of that name, or equal to that record;
    ValueError for anything else."""
    for d in DIRECTIONS.values():
        if direction in (d.name, d):
            return d
    raise ValueError(f"unknown direction {direction!r}: "
                     "expected 1x2 or 2x1")


@cache
def _reduce_word(word):
    """Rewrite a single word to the 1x2 product basis, always at the
    leftmost reducible position; returns {(W', W''): coeff}.  sigma maps
    the 1x2 rules onto the 2x1 ones, so the 2x1 normal form of a word is
    the sigma image of the 1x2 normal form of its sigma image."""
    for i in range(len(word) - 1):
        if word[i] in _MOVERS and word[i + 1] not in _MOVERS:
            break
    else:
        # No mover comes before a non-mover: the word is W' W''.
        cut = sum(x not in _MOVERS for x in word)
        return {(word[:cut], word[cut:]): 1}
    out = {}
    for repl, coeff in _RULES[word[i], word[i + 1]]:
        vec_add_into(out, _reduce_word(word[:i] + repl + word[i + 2:]),
                     coeff)
    return out


def normal_form(p, direction="1x2"):
    """Rewrite a polynomial over the Z letters into the product basis
    of the requested direction: {(W', W''): coeff}, W' over its left
    letters and W'' over its right ones.  A 2x1 normal form relabels by
    sigma the 1x2 normal form of the sigma image of each word.  A letter
    outside the Z letters is an AlphabetError that names it."""
    mirror = _sigma if _as_direction(direction).name == "2x1" else tuple
    _check_letters(LIE_BASE, p.terms)
    acc = {}
    for word, coeff in p.terms.items():
        vec_add_into(acc, _reduce_word(mirror(word)), coeff)
    return {(mirror(w1), mirror(w2)): c for (w1, w2), c in acc.items()}


def _admissible_rows(s, columns):
    """Read the admissible 1x2 pairs off the word rewriting: for each
    (column, Z word), the coefficient of every admissible pair in the
    word's 1x2 normal form goes to that pair's row at the column.
    Returns {(W', W''): {column: coeff}} in w0_pairs order; each column
    must come once.  A row holds nonzero ints (the rewriting drops
    zeros) in the order its columns come: the readout sorts nothing, so
    a caller that passes its columns in print order gets its rows in
    print order."""
    rows = {p: {} for p in w0_pairs(s)}
    for column, word in columns:
        for p, c in _reduce_word(word).items():
            if p in rows:
                rows[p][column] = c
    return rows


# -- the alpha action ---------------------------------------------------

_AD_LETTERS = {"Z1", "Z2"}


def alpha_eval(word):
    """alpha(word) applied to the identity, the letters acting right to
    left: Z1 and Z2 by commutator, the others by left multiplication."""
    vec = {(): 1}
    for x in reversed(tuple(word)):
        out = {(x,) + w: c for w, c in vec.items()}
        if x in _AD_LETTERS:
            vec_add_into(out, {w + (x,): c for w, c in vec.items()}, -1)
        vec = out
    return WordPoly(LIE_BASE, vec)


def alpha_pair(w1, w2):
    """alpha(W') alpha(W'') applied to the identity."""
    return alpha_eval(tuple(w1) + tuple(w2))


# -- the symbolic solution kernel ----------------------------------------

def _z_word(fw):
    """The Z word of a form word: z1 -> Z1, z11 -> Z11, and so on."""
    return tuple(_LIE[x] for x in fw)


def omega_power(s, direction="1x2", cap=None):
    """Symbolic degree-s kernel, Z parts in normal form: each form word
    w carries the normal form of alpha(Z(w)) applied to the identity,
    as {(w, (W', W'')): coeff}.  Its expansion over the admissible
    pairs is omega_decomposition."""
    check_degree(s, cap)
    name = _as_direction(direction).name
    return {(fw, pair): c
            for fw in itertools.product(FORM_BASE, repeat=s)
            for pair, c in normal_form(alpha_eval(_z_word(fw)),
                                       name).items()}


def omega_decomposition(s, direction="1x2", cap=None):
    """Exact expansion of the degree-s kernel over the alpha images of
    the admissible pairs: {(W', W''): form-word polynomial}.

    The kernel is sum_w w (x) alpha(Z(w)) 1, alpha is a representation
    of the quotient algebra, and alpha(q) 1 = 0 for every non-admissible
    product word q.  So writing each Z(w) in normal form gives the
    expansion at once: the coefficient of pair p is sum_w [p] NF(Z(w)) w,
    a readout of the word rewriting.  The alpha images are linearly
    independent (the tests check it), so the expansion is unique.
    """
    check_degree(s, cap)
    return _omega_decomposition(s, _as_direction(direction).name)


@cache
def _omega_decomposition(s, direction):
    """The 2x1 coefficient of sigma(p) at w is the 1x2 coefficient of p
    at sigma(w), the coefficient of p in NF(Z(sigma w)).  So form word
    w is the column of the 1x2 readout of Z(sigma w) (the two products
    run in step), and each row is relabelled by sigma.

    The columns run over the form words in itertools.product order,
    which is the (degree, letter order) of WordPoly.sorted_terms, so
    each row is its coefficient as it stands: terms in print order,
    neither summed nor sorted again (the tests check both)."""
    mirror = _sigma if direction == "2x1" else tuple  # tuple: identity
    rows = _admissible_rows(s, zip(
        itertools.product(FORM_BASE, repeat=s),
        itertools.product(_z_word(mirror(FORM_BASE)), repeat=s)))
    return {(mirror(w1), mirror(w2)): WordPoly._from_terms(FORM_BASE, row)
            for (w1, w2), row in rows.items()}


# -- word enumeration -----------------------------------------------------

def enumerate_w0(letters, s):
    """All length-s words over the given letters that do not end in Z1
    or Z2, in lexicographic order of the letter tuple."""
    out = []
    for word in itertools.product(letters, repeat=s):
        if word and word[-1] in ("Z1", "Z2"):
            continue
        out.append(word)
    return out


def w0_pairs(s, direction="1x2"):
    """All (W', W'') pairs of total degree s over the direction's left
    and right letters, neither word ending in Z1 or Z2.  A negative
    degree raises ValueError; no cap applies."""
    if operator.index(s) < 0:
        raise ValueError("degree must be nonnegative")
    d = _as_direction(direction)
    pairs = []
    for s1 in range(s + 1):
        for w1 in enumerate_w0(d.left_letters, s1):
            for w2 in enumerate_w0(d.right_letters, s - s1):
                pairs.append((w1, w2))
    return pairs
