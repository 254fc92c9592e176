"""Hyperlogarithm terms and their numerical oracles.

A term is the nested series

    L(^{k1}a1 ... ^{kr}ar; z) =
        sum_{n1>...>nr>0} a1^(n1-n2) ... ar^(nr) z^n1 / (n1^k1 ... nr^kr)

with main variable z in {z1, z2} and each letter a_i either 1 ("one")
or the other variable ("param").  The block-sorted case (all ones
first) is the two-variable multiple polylogarithm with numbering
(i, j).

The module translates words over the projected one-form alphabets to
terms and back, evaluates series of adaptive length with a bound made
of a proven tail bound and a first-order rounding estimate, implements the
exact differential recursion of the numbering calculus, and provides
an adaptive Gauss-Legendre quadrature oracle for iterated integrals of
form words along polyline contours.  The oracle lives in the quadrature
module, which eval_quadrature imports on its first call.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import cache, lru_cache
from numbers import Number

from .defaults import DEFAULT_MAX_N
from .errors import AlphabetError, DivergentTermError, DomainError

ONE = "one"
PARAM = "param"

_MAIN_OF_LETTER = {
    "z1": 1, "z11": 1, "z12_1": 1,
    "z2": 2, "z22": 2, "z12_2": 2,
}
_LOG_LETTER = {1: "z1", 2: "z2"}
_ONE_LETTER = {1: "z11", 2: "z22"}
_PARAM_LETTER = {1: "z12_1", 2: "z12_2"}
_EPS = sys.float_info.epsilon


class HyperlogTerm(namedtuple("HyperlogTerm", "main_var index letters")):
    """A term: main_var is 1 or 2, index is (k1, ..., kr) of positive
    integers, and letters holds r entries, each ONE or PARAM; both are
    stored as tuples, so every term hashes.  Terms order and hash as
    their field tuples."""
    __slots__ = ()

    def __new__(cls, main_var, index, letters):
        index, letters = tuple(index), tuple(letters)
        if main_var not in (1, 2):
            raise ValueError("main_var must be 1 or 2")
        if len(index) != len(letters):
            raise ValueError("index and letters must have equal length")
        if any(k < 1 for k in index):
            raise ValueError("index entries must be positive")
        if any(a not in (ONE, PARAM) for a in letters):
            raise ValueError("letters must be 'one' or 'param'")
        return super().__new__(cls, main_var, index, letters)

    @property
    def depth(self):
        return len(self.index)

    @property
    def weight(self):
        return sum(self.index)

    @cache
    def render(self):
        """Compact display form, e.g. L[1,1|one,param]@z1, built once
        per distinct term: the relations of one degree share few terms
        among many right-hand sides."""
        return (f"L[{','.join(map(str, self.index))}|"
                f"{','.join(self.letters)}]@z{self.main_var}")


def word_to_term(word):
    """Parse a word over a projected alphabet into a term: maximal runs
    of the main log letter become exponents."""
    return _word_to_term(tuple(word))


@cache
def _word_to_term(word):
    if not word:
        return HyperlogTerm(1, (), ())
    mains = {_MAIN_OF_LETTER.get(x) for x in word}
    if None in mains:
        raise AlphabetError(f"letter outside the projected alphabets: {word}")
    if len(mains) != 1:
        raise AlphabetError(f"word mixes main variables: {word}")
    main = mains.pop()
    log_letter = _LOG_LETTER[main]
    if word[-1] == log_letter:
        raise DivergentTermError(f"word {word} ends in {log_letter}")
    index, letters = [], []
    pending = 0
    for x in word:
        if x == log_letter:
            pending += 1
        else:
            index.append(pending + 1)
            letters.append(ONE if x == _ONE_LETTER[main] else PARAM)
            pending = 0
    return HyperlogTerm(main, tuple(index), tuple(letters))


def term_to_word(t):
    """Inverse of word_to_term."""
    out = []
    for k, a in zip(t.index, t.letters):
        out.extend([_LOG_LETTER[t.main_var]] * (k - 1))
        out.append(_ONE_LETTER[t.main_var] if a == ONE
                   else _PARAM_LETTER[t.main_var])
    return tuple(out)


class EvalResult(namedtuple("EvalResult",
                            "value truncation_bound terms_used")):
    """A series value (complex; a float from harmonic.mzv_truncated),
    its bound (float) and the number of terms summed."""
    __slots__ = ()

    def times(self, other):
        """(value, bound) of the product of two results: each bound
        times the other value, plus the product of the bounds.  An
        infinite bound stays infinite, even against an exact factor."""
        a, b = self.truncation_bound, other.truncation_bound
        if math.inf in (a, b):
            return self.value * other.value, math.inf
        return (self.value * other.value,
                abs(self.value) * b + abs(other.value) * a + a * b)


# Terms summed between two stop tests of nested_sum.
_STOP_STRIDE = 8


def _tail_bound(q, k1, r, n):
    """Proven bound on sum over m > n of |z^m T[0](m)|, where q is |z|
    times the largest of 1 and the |alpha_j|.

    Every chain m = n1 > n2 > ... > nr > 0 of T[0](m) carries the
    geometric factors alpha_1^(n1-n2) ... alpha_r^(nr), whose moduli
    multiply to at most max(1, |alpha_j|)^m, and the sum over chains of
    1/(n2 ... nr) is at most H(m-1)^(r-1) / (r-1)!.  So the m-th tail
    term is at most q^m M(m) with M(m) = (1 + ln m)^(r-1) /
    ((r-1)! m^k1).  Since (1 + ln(m+1)) / (1 + ln m) falls with m, the
    ratio of consecutive majorant terms beyond n is at most
    q ((1 + ln(n+2)) / (1 + ln(n+1)))^(r-1), and the tail is at most the
    geometric sum from q^(n+1) M(n+1).  Where that ratio is not below 1
    the bound is inf.
    """
    log_head = 1.0 + math.log(n + 1)
    ratio = q * ((1.0 + math.log(n + 2)) / log_head) ** (r - 1)
    if ratio >= 1.0:
        return math.inf
    return (q ** (n + 1) * log_head ** (r - 1) * (n + 1.0) ** -k1
            / (math.factorial(r - 1) * (1.0 - ratio)))


def _rounding_estimate(r, n, abs_sum):
    """gamma_k times sum over m <= n of |z^m T[0](m)|, with
    k = 2(r+1)(n+1) and gamma_k = k eps / (1 - k eps): an estimate of
    the rounding error of the computed total, not a proof.

    The term z^m T[0](m) comes out of the m products of z^m and of
    alpha_r^m, the m additions and m products at each of the r-1 levels
    of C, r real divisions and one last product, and the running total
    adds at most n more roundings.  Each operation errs by at most
    sqrt(5) u (a complex product) or u relative, with u = eps / 2, so to
    first order the computed total is within this estimate of the exact
    one, provided the partial sums of C do not cancel far below their
    terms; the ROADMAP item on proven rounding bounds records that
    assumption.
    """
    k_eps = 2 * (r + 1) * (n + 1) * _EPS
    return k_eps / (1.0 - k_eps) * abs_sum


def nested_sum(alphas, ks, z, max_n):
    """(total, n, bound) of the nested series sum over m <= n of
    z^m T[0](m).  The arithmetic follows the inputs: floats when z and
    every alpha are floats, complex numbers when any is complex; total
    is returned as a complex either way.  For real operands complex
    +, * and / give the float result in the real part and +-0.0 in the
    imaginary part, so both give the same bits.

    T[j](m) is the inner sum with the j-th summation index fixed at m,
    including its own 1/m^k_j and geometric factors; C[j] accumulates
    sum_{l<m} alpha_j^(m-l) T[j+1](l).  Both are updated in place.

    n is max_n or the first multiple of _STOP_STRIDE below it at which
    the proven tail bound (_tail_bound) is at most the estimated
    rounding error (_rounding_estimate): more terms could not make the
    value more certain.  Where q = |z| max(1, |alpha_j|) is not below 1
    the tail majorant diverges, so the sum runs to max_n.  bound is the
    tail bound plus the rounding estimate at n; the tail part is proven
    (inf where its majorant does not converge), the rounding part is a
    first-order count that assumes the sums C do not cancel far below
    their terms (the ROADMAP item on proven rounding bounds).  The terms
    are computed the same way wherever the sum stops.  An index entry k
    for which n**k leaves the float range before the sum stops raises
    DomainError.
    """
    r = len(ks)
    if isinstance(z, float) and all(isinstance(a, float) for a in alphas):
        zero, one = 0.0, 1.0
    else:
        zero, one = 0j, 1 + 0j
    T = [zero] * r
    C = [zero] * (r - 1)
    inner = range(r - 1)
    a_last, k_last = alphas[r - 1], ks[r - 1]
    q = abs(z) * max(1.0, *map(abs, alphas))
    ar_pow = z_pow = one
    total = zero
    abs_sum = 0.0
    n = 0
    try:
        while True:
            for n in range(n + 1, min(n + _STOP_STRIDE, max_n) + 1):
                for j in inner:
                    C[j] = alphas[j] * (C[j] + T[j + 1])
                    T[j] = C[j] / n ** ks[j]
                ar_pow *= a_last
                T[r - 1] = ar_pow / n ** k_last
                z_pow *= z
                term = z_pow * T[0]
                total += term
                abs_sum += abs(term)
            tail = _tail_bound(q, ks[0], r, n)
            rounding = _rounding_estimate(r, n, abs_sum)
            if n >= max_n or tail <= rounding:
                return complex(total), n, tail + rounding
    except OverflowError:
        k = max(ks)
        raise DomainError(
            f"index entry {k} is too large: {n}**{k} exceeds the float "
            "range before the series stops") from None


def check_point(point, what="an evaluation point"):
    """The point as (z1, z2); ValueError naming it unless it is two
    coordinates, each a number (a str is not one)."""
    try:
        z1, z2 = point
    except (TypeError, ValueError):
        z1 = z2 = None
    if not (isinstance(z1, Number) and isinstance(z2, Number)):
        raise ValueError(f"{what} is two coordinates (z1, z2), each a "
                         f"number, got {point!r}")
    return z1, z2


def check_tol(tol):
    """ValueError unless tol is finite and > 0: an infinite tol would
    pass every check, and a NaN one fail every one."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


@lru_cache(maxsize=4096)
def eval_series(t, z1, z2, max_n=DEFAULT_MAX_N):
    """Nested series of a term, summed by nested_sum with an adaptive
    length: at most max_n terms, and fewer once the proven tail bound
    falls below the estimated rounding error.

    Requires |z_main| < 1 and |param| <= 1.  truncation_bound is the
    proven tail bound plus the first-order rounding estimate (see
    nested_sum; inf where the cap is too small for the tail majorant to
    converge), and terms_used is the number of terms summed; the value
    is the plain loop's value at that length.  max_n must be an int
    >= 1 and each coordinate a number (else ValueError, see
    check_point).

    Coordinates that are both int or float are summed in floats, and
    any others (complex, or another number type) as complex numbers
    (see nested_sum); the value is complex either way.  The function is
    its own bounded LRU of 4096 entries, keyed on its arguments as
    given, so a hit runs none of the checks above;
    eval_series.cache_clear() empties it.  A call that passes max_n by
    keyword and one that passes it by position are separate entries
    with the same result.  Keys compare with ==, so a max_n of 2000.0
    is served from a cached entry of 2000 instead of being rejected.
    A real point and the same point given as complex are one key, which
    is safe because both give the same bits (tested).  -0.0 and +0.0
    share an entry safely too: signed zeros change no nonzero part, and
    the running sum, which starts at +0.0, never ends at -0.0.
    """
    if not (isinstance(max_n, int) and max_n >= 1):
        raise ValueError(f"max_n must be an int >= 1, got {max_n!r}")
    check_point((z1, z2))
    z, param = (z1, z2) if t.main_var == 1 else (z2, z1)
    if isinstance(z, (int, float)) and isinstance(param, (int, float)):
        z, param = float(z), float(param)
    else:
        z, param = complex(z), complex(param)
    if t.depth == 0:
        return EvalResult(complex(1.0), 0.0, 0)
    # Written negated so that a NaN coordinate fails too.
    if not abs(z) < 1:
        raise DomainError(f"|z{t.main_var}| = {abs(z)} must be < 1")
    if not abs(param) <= 1 + 1e-15:
        raise DomainError(f"|z{3 - t.main_var}| = {abs(param)} must be <= 1")
    alphas = [1.0 if a == ONE else param for a in t.letters]
    total, n, bound = nested_sum(alphas, t.index, z, max_n)
    return EvalResult(total, bound, n)


def within_bound(residual, bound, tol):
    """Whether a residual is within tol plus a combined series bound.
    An infinite or NaN bound, which a cap too small for the tail
    majorant gives, accounts for nothing, so it never passes."""
    return math.isfinite(bound) and residual <= tol + bound


# -- differential recursion ------------------------------------------------

# Rational-function coefficient tags for the derivative branches.
COEFF_EVAL = {
    "1/z1": lambda z1, z2: 1 / z1,
    "1/(1-z1)": lambda z1, z2: 1 / (1 - z1),
    "z2/(1-z1z2)": lambda z1, z2: z2 / (1 - z1 * z2),
    "1/z2": lambda z1, z2: 1 / z2,
    "1/(1-z2)": lambda z1, z2: 1 / (1 - z2),
    "z1/(1-z1z2)": lambda z1, z2: z1 / (1 - z1 * z2),
}


def partial_derivative(t, var):
    """d/dz_var of Li_index(i, j; z1, z2): t is its main-z1 block-sorted
    term, i 'one' letters then j 'param' letters.

    Returns a list of (coefficient tag, rational coefficient, term)
    triples, each term main-z1 and block-sorted; the sum of coeff * tag
    * term is the derivative.  Any other term, the empty one included,
    raises ValueError.
    """
    index, letters = t.index, t.letters
    i = letters.count(ONE)
    if (t.main_var != 1 or not index
            or letters != (ONE,) * i + (PARAM,) * (len(index) - i)):
        raise ValueError(
            f"not a nonempty main-z1 block-sorted term: {t.render()}")
    if var == 1:
        k1 = index[0]
        if k1 == 1:
            coeff = "1/(1-z1)" if i > 0 else "z2/(1-z1z2)"
            return [(coeff, 1, HyperlogTerm(1, index[1:], letters[1:]))]
        return [("1/z1", 1, HyperlogTerm(1, (k1 - 1,) + index[1:], letters))]
    if var == 2:
        if i == 0 and index[0] == 1:
            return [("z1/(1-z1z2)", 1,
                     HyperlogTerm(1, index[1:], letters[1:]))]
        if i == len(index):
            return []
        knext = index[i]
        if knext == 1:
            dropped = index[:i] + index[i + 1:]
            # Numbering (i, j - 1), then (i - 1, j) twice.
            shorter = HyperlogTerm(1, dropped, letters[1:])
            return [
                ("1/(1-z2)", 1, HyperlogTerm(1, dropped, letters[:-1])),
                ("1/(1-z2)", -1, shorter),
                ("1/z2", -1, shorter),
            ]
        dec = index[:i] + (knext - 1,) + index[i + 1:]
        return [("1/z2", 1, HyperlogTerm(1, dec, letters))]
    raise ValueError("var must be 1 or 2")


# -- quadrature oracle -----------------------------------------------------

def eval_quadrature(p, path, tol=1e-10, max_refine=7):
    """Iterated integral of a form polynomial along a polyline.

    path is a sequence of (z1, z2) points, each coordinate a number
    (else ValueError, see check_point).  Each level integrates all
    words at once (see _level_integrals); panels are refined (doubled)
    until two successive evaluations differ by less than tol / 2, and
    DomainError, giving the last difference and tol, is raised when
    max_refine doublings do not reach that.  tol must be finite and
    positive and max_refine an int >= 0 (else ValueError); a letter
    that is not a form letter raises AlphabetError.  A start at
    a singular point (such as the origin) needs no special panels,
    since every integral accepted there is analytic on the first leg
    (see the quadrature module).  DivergentTermError rejects, before any panel
    is built, the words whose integral from such a start diverges: an
    innermost letter that is pure-log or singular at the start, or a
    letter with a double pole there.
    """
    from .quadrature import iterated_integral
    return iterated_integral(p, path, tol, max_refine)
