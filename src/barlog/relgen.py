"""Generation and verification of the generalized harmonic product
relations, and the two-contour decomposition consistency check of the
normalized fundamental solution, whose symbolic part certifies each
direction's kernel once through duality.certified_kernel.

Each relation equates a product L(theta1(W'); z1) L(theta2(W''); z2)
with the contour integral of the split integrable representative
phi(W', W''), read off factorwise: the left factor integrates along
the z2 leg first, so each right-hand term is a product of a main-z2
hyperlogarithm and a main-z1 one.  That split is the change of product
basis 2x1 -> 1x2: the coefficient of theta(q') x theta(q'') is the
coefficient of the pair (W', W'') in the 1x2 normal form of the 2x1
product word q' q''.  So the degree-s relations are the rows of one
square integer matrix C_s over the admissible pairs, built from the
word rewriting alone; neither the kernel nor phi is computed for them.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .defaults import DEFAULT_MAX_N, DEFAULT_POINT, DEFAULT_TOL
from .duality import certified_kernel, theta_pair
from .hyperlog import (check_point, check_tol, eval_series, within_bound,
                       word_to_term)
from .ipbenv import (DIRECTIONS, alpha_pair, check_degree, w0_pairs,
                     _read_rows, _reduce_word)


class Relation(namedtuple("Relation", "w1 w2 degree lhs rhs trivial")):
    """One generalized harmonic product relation.

    lhs is the ordered pair of factor terms (main z1, main z2); rhs is
    a tuple of (coefficient, main-z2 term, main-z1 term) triples, from
    generate_relation in the word order of the relation's row of C_s.
    Equality ignores degree, trivial and the order of rhs, and so does
    the hash.
    """
    __slots__ = ()

    def sorted_rhs(self):
        """rhs in printed order, by the main-z2 term's index and
        letters, then the main-z1 term's."""
        return tuple(sorted(self.rhs, key=lambda t: (t[1].index,
                                                     t[1].letters,
                                                     t[2].index,
                                                     t[2].letters)))

    def render(self):
        left = " * ".join(t.render() for t in self.lhs if t.depth) or "1"
        parts = []
        for c, t2, t1 in self.sorted_rhs():
            factors = [t.render() for t in (t2, t1) if t.depth]
            body = " * ".join(factors) or "1"
            parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*{body}")
        return f"{left} = {' '.join(parts)}"

    def __eq__(self, other):
        return (isinstance(other, Relation)
                and (self.w1, self.w2) == (other.w1, other.w2)
                and self.lhs == other.lhs
                and sorted(self.rhs) == sorted(other.rhs))

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((self.w1, self.w2, self.lhs))


def _term_key(t):
    """Function identity of a term: an all-param term is a function of
    the product z1*z2, so its main variable is immaterial."""
    if t.depth == 0:
        return None
    if all(a == "param" for a in t.letters):
        return ("prod", t.index)
    return (t.main_var, t.index, t.letters)


@cache
def _relation_rows(s):
    """The rows of C_s: {(W', W''): {2x1 column: coeff}} over the
    admissible 1x2 pairs.  Each admissible 2x1 product word q' q'' puts
    the coefficient of (W', W'') in its 1x2 normal form at the column
    theta(q') x theta(q''); theta is injective, so no entry is written
    twice.  No non-admissible 2x1 word reaches an admissible pair (the
    tests check it), so the matrix is square.  Each row is the
    readout's dict of nonzero ints as it stands, in the word order of
    its columns."""
    d = DIRECTIONS["2x1"]
    return _read_rows(w0_pairs(s), ((theta_pair(q1, q2, d), q1 + q2)
                                     for q1, q2 in w0_pairs(s, d)))


def generate_relation(w1, w2, cap=None):
    """The relation attached to a product-basis pair of the 1x2
    splitting, read from its row of C_s: both factor words must avoid
    trailing Z1/Z2 (ValueError) and use their factor's letters
    (AlphabetError), and the degree must not exceed the cap (the
    default cap when None)."""
    w1, w2 = tuple(w1), tuple(w2)
    lhs = tuple(map(word_to_term, theta_pair(w1, w2, "1x2")))
    s = len(w1) + len(w2)
    check_degree(s, cap)
    # The row is in the word order of its 2x1 columns already (the tests
    # check it), and verify_relation sums in this order.
    rhs = tuple((c, word_to_term(u), word_to_term(v))
                for (u, v), c in _relation_rows(s)[(w1, w2)].items())
    trivial = (len(rhs) == 1 and rhs[0][0] == 1 and
               sorted(filter(None, map(_term_key, rhs[0][1:])))
               == sorted(filter(None, map(_term_key, lhs))))
    return Relation(w1=w1, w2=w2, degree=s, lhs=lhs, rhs=rhs,
                    trivial=trivial)


def generate_all(s, cap=None):
    """All relations of total degree s, in enumeration order, under the
    degree cap (the default cap when None)."""
    check_degree(s, cap)
    return [generate_relation(w1, w2, cap) for w1, w2 in w0_pairs(s, "1x2")]


def verify_relation(r, point, max_n=DEFAULT_MAX_N, tol=DEFAULT_TOL):
    """Numeric witness of a relation at one (z1, z2) point.

    Every series stops adaptively within max_n terms (see
    eval_series), and eval_series's LRU serves a term that many
    relations share.  Returns {point, lhs, rhs, residual, bound,
    passed}; bound combines the series' tail bounds and rounding
    estimates, and the relation passes when the bound is finite and the
    residual does not exceed tol plus bound.  The rhs is summed in the
    order of r.rhs.  A point that is not two numbers, or a tol that is
    not finite and > 0, raises ValueError before any series is summed.
    """
    z1, z2 = check_point(point)
    check_tol(tol)
    lv, lb = eval_series(r.lhs[0], z1, z2, max_n).times(
        eval_series(r.lhs[1], z1, z2, max_n))
    rv, rb = 0.0 + 0j, 0.0
    for c, t2, t1 in r.rhs:
        v, b = eval_series(t2, z1, z2, max_n).times(
            eval_series(t1, z1, z2, max_n))
        rv += complex(c) * v
        rb += abs(c) * b
    residual = abs(lv - rv)
    bound = lb + rb
    return {
        "point": (z1, z2),
        "lhs": lv,
        "rhs": rv,
        "residual": residual,
        "bound": bound,
        "passed": within_bound(residual, bound, tol),
    }


# -- decomposition consistency ----------------------------------------------

def _theta_eval(pair, direction, z1, z2, max_n):
    """Value and bound (proven tail plus rounding estimate) of
    L(theta1(W'); main) L(theta2(W''); other)."""
    t1, t2 = map(word_to_term, theta_pair(*pair, direction))
    return eval_series(t1, z1, z2, max_n).times(
        eval_series(t2, z1, z2, max_n))


def _numeric_coeffs(s, direction, z1, z2, max_n):
    """Coefficients of the degree-s solution kernel at a point, in the
    1x2 product basis, evaluated through one contour's expansion."""
    acc = {}
    bound = 0.0
    for pair in w0_pairs(s, direction):
        v, b = _theta_eval(pair, direction, z1, z2, max_n)
        lie = alpha_pair(*pair)
        for w, c in lie.terms.items():
            for key, nc in _reduce_word(w).items():
                acc[key] = acc.get(key, 0j) + v * float(c) * float(nc)
                bound += b * abs(float(c) * float(nc))
    return acc, bound


def decompose_check(s, point=DEFAULT_POINT, max_n=DEFAULT_MAX_N,
                    tol=DEFAULT_TOL, cap=None):
    """Consistency of the two contour expansions of the degree-s kernel.

    Symbolic part: certified_kernel certifies the kernel in each
    direction once (keyed by exactly the admissible pairs, each
    coefficient integrable and split as its theta monomial; BarlogError
    naming the pair if not).  Numeric part: the two expansions, reduced to a
    common product basis, agree coefficientwise at the point.  cap is
    the degree cap (the default cap when None).  The point must be two
    numbers and tol finite and > 0 (ValueError, before any kernel is
    built).
    """
    check_degree(s, cap)
    point = check_point(point)
    check_tol(tol)
    for d in ("1x2", "2x1"):
        certified_kernel(s, d, cap)
    a, ba = _numeric_coeffs(s, "1x2", *point, max_n)
    b, bb = _numeric_coeffs(s, "2x1", *point, max_n)
    keys = set(a) | set(b)
    residual = max((abs(a.get(k, 0) - b.get(k, 0)) for k in keys),
                   default=0.0)
    return {
        "degree": s,
        "point": point,
        "symbolic": True,
        "coefficients": len(keys),
        "residual": residual,
        "bound": ba + bb,
        "passed": within_bound(residual, ba + bb, tol),
    }
