"""Harmonic (quasi-shuffle) products of nested-sum indices and the
two-variable generalization.

Provides the classical quasi-shuffle product of indices, its closed
partial-fraction expansion, the two-variable harmonic expansion of a
product Li_k(z1) Li_l(z2) into 2MPLs of both orientations, the exact
action of the one-variable integral operators on a 2MPL (the
preparation recursion), the symbolic equivalence check between the
operator recursion and the harmonic expansion, and multiple zeta
values by the Hoelder convolution of series at 1/2, with a bound made
of the series' proven tail bounds and rounding estimates.

The two-variable expansions are tagged sums: plain dicts
{(index, numbering, orientation): integer coefficient}, summed by
linalg.vec_add_into like the {index: coefficient} dicts of the
one-variable products.  Each tag names a block-sorted HyperlogTerm,
and _tag_term is the one place that reads it as one.
"""

from __future__ import annotations

import sys

from .errors import DivergentTermError
from .defaults import DEFAULT_MAX_N
from .hyperlog import (ONE, PARAM, EvalResult, HyperlogTerm, eval_series,
                       word_to_term)
from .linalg import vec_add_into


def _positive(index):
    """index as a tuple, every entry checked to be positive."""
    index = tuple(index)
    if any(k < 1 for k in index):
        raise ValueError(f"index entries must be positive: {index}")
    return index


def _prefixed(head, product):
    return {head + idx: c for idx, c in product.items()}


def index_harmonic(k, l):
    """Quasi-shuffle product of two indices: {index: integer coeff}.
    An index entry below 1 raises ValueError."""
    return _index_harmonic(_positive(k), _positive(l))


def _index_harmonic(k, l):
    """index_harmonic of two tuples already checked."""
    if not k:
        return {l: 1}
    if not l:
        return {k: 1}
    acc = _prefixed((k[0],), _index_harmonic(k[1:], l))
    vec_add_into(acc, _prefixed((l[0],), _index_harmonic(k, l[1:])))
    return vec_add_into(acc, _prefixed((k[0] + l[0],),
                                       _index_harmonic(k[1:], l[1:])))


def closed_harmonic_expand(k, l):
    """The closed re-grouping of the quasi-shuffle product: all ways of
    inserting k1 (possibly merged with the next entry of l) after a
    prefix of l, recursing on the tails, plus the fully-stacked term.
    An index entry below 1 raises ValueError."""
    k, l = _positive(k), _positive(l)
    if not k:
        return {l: 1}
    acc = {}
    for p in range(len(l)):
        vec_add_into(acc, _prefixed(l[:p] + (k[0],),
                                    _index_harmonic(k[1:], l[p:])))
        vec_add_into(acc, _prefixed(l[:p] + (k[0] + l[p],),
                                    _index_harmonic(k[1:], l[p + 1:])))
    return vec_add_into(acc, {l + k: 1})


# -- tagged 2MPL sums -------------------------------------------------------

# A tagged term is (index, numbering, orientation) with orientation
# "12" for Li(i, j; z1, z2), "21" for Li(i, j; z2, z1), and "prod" for
# the numbering-(0, j) functions of the product z1*z2 (either
# orientation collapses to the same function).


def canonical_tag(tag):
    index, (i, j), orientation = tag
    if i == 0 and orientation in ("12", "21"):
        return (index, (0, j), "prod")
    return tag


def _canonical(s):
    """A tagged sum with every tag canonical, equal tags merged."""
    out = {}
    for t, c in s.items():
        vec_add_into(out, {canonical_tag(t): c})
    return out


def _tag_term(tag):
    """The block-sorted HyperlogTerm a tag names: i 'one' letters then
    j 'param' letters, main variable z1 for "12" and "prod" and z2 for
    "21".  A numbering (i, j) with a negative part or i + j other than
    the depth, an index entry below 1, or another orientation raises
    ValueError."""
    index, (i, j), orientation = tag
    if orientation not in ("12", "21", "prod"):
        raise ValueError(f"unknown orientation {orientation!r}")
    if i < 0 or j < 0 or i + j != len(index):
        raise ValueError(f"bad numbering {(i, j)} for index {index}")
    return HyperlogTerm(2 if orientation == "21" else 1, tuple(index),
                        (ONE,) * i + (PARAM,) * j)


def eval_tagged(tag, z1, z2, max_n=DEFAULT_MAX_N):
    """EvalResult of the term a tag names, by eval_series at (z1, z2):
    at most max_n terms, with a proven tail bound plus a rounding
    estimate.  A malformed tag raises ValueError (see _tag_term)."""
    return eval_series(_tag_term(tag), z1, z2, max_n)


def eval_sum(s, z1, z2, max_n=DEFAULT_MAX_N):
    """(value, bound) of a tagged sum {(index, numbering, orientation):
    coefficient}: each term by eval_tagged, at most max_n series terms
    each, and the bound the sum of |coefficient| times each term's
    truncation_bound (tail plus rounding estimate)."""
    total = 0.0 + 0j
    bound = 0.0
    for tag, c in s.items():
        r = eval_tagged(tag, z1, z2, max_n)
        total += complex(c) * r.value
        bound += abs(c) * r.truncation_bound
    return total, bound


# -- the two-variable harmonic expansion ------------------------------------

def mpl_harmonic_expand(k, l):
    """Expansion of Li_k(z1) Li_l(z2) into a tagged sum of 2MPL terms,
    every tag canonical.

    Splits the double summation domain by which variable carries the
    larger summation index and by how deep the interleaving reaches.
    An index entry below 1 raises ValueError.
    """
    k, l = _positive(k), _positive(l)
    if not k or not l:
        raise ValueError("both indices must be nonempty")
    i, j = len(k), len(l)
    out = {}

    def emit(prefix, tail_product, first, orientation):
        for idx, c in tail_product.items():
            index = prefix + idx
            vec_add_into(out, {(index, (first, len(index) - first),
                                orientation): c})

    for p in range(1, i):
        emit(k[:p] + (l[0],), _index_harmonic(k[p:], l[1:]), p, "12")
        emit(k[:p] + (l[0] + k[p],), _index_harmonic(k[p + 1:], l[1:]),
             p, "12")
    vec_add_into(out, {(k + l, (i, j), "12"): 1})
    for p in range(1, j):
        emit(l[:p] + (k[0],), _index_harmonic(l[p:], k[1:]), p, "21")
        emit(l[:p] + (k[0] + l[p],), _index_harmonic(l[p + 1:], k[1:]),
             p, "21")
    vec_add_into(out, {(l + k, (j, i), "21"): 1})
    emit((k[0] + l[0],), _index_harmonic(k[1:], l[1:]), 0, "21")
    return _canonical(out)


# -- the preparation recursion ----------------------------------------------

def prepare2(index, numbering, k):
    """Apply the weight-k integral operator in the second variable to
    Li_index(i, j; z1, z2).

    The new entry k is inserted at every admissible slot inside the
    leading block (optionally merging with the entry it lands on), and
    the fully-outrun term flips orientation.
    """
    index = tuple(index)
    i, j = numbering
    out = {}
    for s in range(i):
        pos = i - s
        ins = index[:pos] + (k,) + index[pos:]
        vec_add_into(out, {(ins, (pos, j + s + 1), "12"): 1})
        merged = index[:pos - 1] + (index[pos - 1] + k,) + index[pos:]
        vec_add_into(out, {(merged, (pos - 1, j + s + 1), "12"): 1})
    return vec_add_into(out, {((k,) + index, (1, i + j), "21"): 1})


def apply_operator(s, k):
    """Apply the weight-k second-variable integral operator to every
    term of a tagged sum."""
    out = {}
    for tag, c in s.items():
        index, (i, j), _ = tag
        if _tag_term(tag).main_var == 1:
            # A "prod" term is the numbering-(0, j) case of either
            # orientation; treat it as orientation 12 with i = 0.
            piece = prepare2(index, (i, j), k)
        else:
            piece = {((k,) + index, (i + 1, j), "21"): 1}
        vec_add_into(out, piece, c)
    return out


def recursion_expand(k, l):
    """Li_k(z1) Li_l(z2) by iterating the integral operators of l
    (innermost entry first) on Li_k(i, 0; z1, z2).  An index entry
    below 1 raises ValueError."""
    k, l = _positive(k), _positive(l)
    s = {(k, (len(k), 0), "12"): 1}
    for weight in reversed(l):
        s = apply_operator(s, weight)
    return _canonical(s)


def all_indices(weight):
    """All compositions of the given total weight (admissible nested-sum
    indices), in lexicographic order."""
    if weight == 0:
        return [()]
    out = []
    for first in range(1, weight + 1):
        for rest in all_indices(weight - first):
            out.append((first,) + rest)
    return sorted(out)


def equivalence_check(max_weight):
    """Compare the operator recursion against the harmonic expansion
    for every pair of nonempty indices of total weight <= max_weight.

    Returns a list of (k, l, matched) triples.
    """
    report = []
    for total in range(2, max_weight + 1):
        for wk in range(1, total):
            for k in all_indices(wk):
                for l in all_indices(total - wk):
                    lhs = mpl_harmonic_expand(k, l)
                    rhs = recursion_expand(k, l)
                    report.append((k, l, lhs == rhs))
    return report


# -- truncated multiple zeta values -----------------------------------------

# The letters dt/t and dt/(1-t) of an MZV word, written as the form
# letters of main variable z1 so that word_to_term reads a word ending
# in dt/(1-t) as the all-one term of its index.
_OMEGA0, _OMEGA1 = "z1", "z11"
_SWAP = {_OMEGA0: _OMEGA1, _OMEGA1: _OMEGA0}


def _li_half(word, max_n):
    """Li(word; 1/2) of a word ending in dt/(1-t), by eval_series."""
    return eval_series(word_to_term(word), 0.5, 0.0, max_n)


def mzv_truncated(index, max_n=DEFAULT_MAX_N):
    """zeta(k1, ..., kr) by the Hoelder convolution at 1/2 (Borwein,
    Bradley, Broadhurst and Lisonek, math/9910045), with a bound: an
    EvalResult whose value is a float.

    Let w be the word of the index, each entry k giving
    omega0^(k-1) omega1 (omega0 = dt/t, omega1 = dt/(1-t)), outermost
    letter first.  Splitting the path [0, 1] at 1/2 (Chen's formula)
    and sending t to 1 - t on the upper leg gives

        zeta(w) = sum_{j=0}^{|w|} Li(rev-swap(w[:j]); 1/2) Li(w[j:]; 1/2)

    where rev-swap reverses a word and exchanges omega0 and omega1: each
    letter's minus sign from the map cancels against the reversed
    orientation.  Both factors end in omega1 (w starts with omega0), so
    each is an all-one series at 1/2, summed by eval_series with at
    most max_n terms.  The bound is the sum of the products' bounds
    (EvalResult.times) plus gamma_(|w|+2) times the sum of the
    products' moduli, for the rounding of the outer sum; terms_used is
    the sum of the factors' terms_used.

    Requires max_n >= 1 and every ki >= 1 (else ValueError), and
    k1 >= 2 (else the series diverges: DivergentTermError).
    """
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    index = _positive(index)
    if not index:
        return EvalResult(1.0, 0.0, 0)
    if index[0] < 2:
        raise DivergentTermError(
            f"zeta{index} diverges: leading entry must be >= 2")
    word = tuple(x for k in index for x in (_OMEGA0,) * (k - 1) + (_OMEGA1,))
    total = bound = abs_sum = 0.0
    terms = 0
    for j in range(len(word) + 1):
        lower = _li_half(tuple(_SWAP[x] for x in reversed(word[:j])), max_n)
        upper = _li_half(word[j:], max_n)
        value, b = lower.times(upper)
        total += value.real
        bound += b
        abs_sum += abs(value)
        terms += lower.terms_used + upper.terms_used
    k_eps = (len(word) + 2) * sys.float_info.epsilon
    return EvalResult(total, bound + k_eps / (1.0 - k_eps) * abs_sum, terms)
