"""The duality between the integrable forms and the product bases of
the enveloping algebra: the letterwise theta substitution, the tensor
splitting isomorphisms iota (deconcatenation followed by the two
letter projections), the canonical integrable representative
phi(W', W'') of a product-basis pair, and the inverses of the
splittings by linearity from phi.  phi is the one gate between the
kernel decomposition and its users: it certifies each pair's kernel
coefficient once per process.
"""

from __future__ import annotations

from functools import cache

from .errors import AlphabetError, BarlogError, DomainError
from .ipbenv import _as_direction, check_degree, omega_decomposition
from .linalg import vec_add_into
from .words import FORM_BASE, TensorPoly, WordPoly, _shuffle_words, shuffle


def theta(word, direction="1x2", side="left"):
    """Letterwise displacement of Z letters to form letters for one
    factor of the given splitting."""
    d = _as_direction(direction)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    table = d.theta_left if side == "left" else d.theta_right
    out = []
    for x in word:
        if x not in table:
            raise AlphabetError(
                f"letter {x!r} not in the {side} factor of {d.name}")
        out.append(table[x])
    return tuple(out)


def theta_pair(w1, w2, direction="1x2"):
    """The theta images of a product-basis pair of the splitting:
    ValueError for a word ending in Z1/Z2, AlphabetError for a letter
    outside its factor."""
    for w in (w1, w2):
        if w and w[-1] in ("Z1", "Z2"):
            raise ValueError(f"word {tuple(w)} ends in Z1/Z2 and is not "
                             "allowed")
    return theta(w1, direction, "left"), theta(w2, direction, "right")


def iota(p, direction="1x2"):
    """Tensor splitting of an integrable form polynomial: Chen's
    condition (DomainError naming the first failing degree and cut),
    then tensor_split(p, direction)."""
    # formspace loads only where a form is checked, not with duality.
    from .formspace import _chen_failure

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
    d = _as_direction(direction)
    acc = {}
    for w, c in p.terms.items():
        left = [d.left_map[x] for x in w] + [None]
        right = [None] + [d.right_map[x] for x in w]
        first, last = len(w) - right[::-1].index(None), left.index(None)
        vec_add_into(acc, {(tuple(left[:l]), tuple(right[l + 1:])): 1
                           for l in range(first, last + 1)}, c)
    return TensorPoly(d.left_alphabet, d.right_alphabet, acc)


# -- inverse by linearity from phi ------------------------------------------

def _log_letter(alphabet):
    """The factor's logarithmic letter, z1 or z2: the theta image of
    Z1 or Z2, and the base form letter of the same name."""
    (log,) = {"z1", "z2"}.intersection(alphabet)
    return log


def _log_split(word, log):
    """word as a sum of c * (x sh log^n) with x not ending in log, as
    {(x, n): c}: for word = v b log^n with b != log, the integer closed
    form v b log^n = sum_j (-1)^j ((v sh log^j) b) sh log^(n-j)."""
    k = len(word)
    while k and word[k - 1] == log:
        k -= 1
    n = len(word) - k
    if not k:
        return {((), n): 1}
    v, b = word[:k - 1], word[k - 1]
    return {(x + (b,), n - j): (-1) ** j * m
            for j in range(n + 1)
            for x, m in _shuffle_words(v, (log,) * j).items()}


def iota_inv(t, direction="1x2", cap=None):
    """The unique integrable preimage of a tensor polynomial, by
    linearity from phi.  iota is a shuffle morphism, injective on the
    integrable forms, that sends phi(W', W'') to theta(W') x theta(W'')
    and z1^a, z2^c to the powers of the log letters of their factors;
    so each tensor word, split by _log_split on both sides, pulls back
    to phi of the theta preimages shuffled with z1^a and z2^c."""
    d = _as_direction(direction)
    if (t.left_alphabet, t.right_alphabet) != (d.left_alphabet,
                                               d.right_alphabet):
        raise AlphabetError(f"tensor alphabets do not match {d.name}")
    # A pure-log tensor never reaches phi, so the cap is checked here.
    check_degree(max((len(w1) + len(w2) for w1, w2 in t.terms), default=0),
                 cap)
    left_log = _log_letter(d.left_alphabet)
    right_log = _log_letter(d.right_alphabet)
    from_left = {v: k for k, v in d.theta_left.items()}
    from_right = {v: k for k, v in d.theta_right.items()}
    by_logs = {}
    for (u1, u2), c in t.terms.items():
        for (x1, a), c1 in _log_split(u1, left_log).items():
            for (x2, b), c2 in _log_split(u2, right_log).items():
                p = phi([from_left[x] for x in x1],
                        [from_right[x] for x in x2], d, cap)
                vec_add_into(by_logs.setdefault((a, b), {}), p.terms,
                             c * c1 * c2)
    acc = {}
    for (a, b), vec in by_logs.items():
        logs = shuffle(WordPoly.monomial(FORM_BASE, (left_log,) * a),
                       WordPoly.monomial(FORM_BASE, (right_log,) * b))
        vec_add_into(acc, shuffle(WordPoly(FORM_BASE, vec), logs).terms)
    return WordPoly(FORM_BASE, acc)


def phi(w1, w2, direction="1x2", cap=None):
    """The integrable representative of a product-basis pair: the
    preimage of theta(W') x theta(W'') under the splitting.

    By the tensor splitting of the normalized fundamental solution it
    is the pair's coefficient in the kernel decomposition; the
    coefficient is returned only once it is certified."""
    d = _as_direction(direction)
    w1, w2 = tuple(w1), tuple(w2)
    # The words are checked before any kernel is built.
    theta_pair(w1, w2, d)
    check_degree(len(w1) + len(w2), cap)
    return _phi(w1, w2, d.name)


@cache
def _phi(w1, w2, direction):
    """The pair's kernel coefficient, certified: it satisfies Chen's
    condition and tensor_split gives the theta monomial of the pair
    (BarlogError if not)."""
    from .formspace import _chen_failure

    d = _as_direction(direction)
    s = len(w1) + len(w2)
    # phi has checked the cap, so the kernel is built at s.
    coeff = omega_decomposition(s, direction, cap=s)[(w1, w2)]
    t = TensorPoly.monomial(d.left_alphabet, d.right_alphabet,
                            theta(w1, d, "left"), theta(w2, d, "right"))
    if _chen_failure(coeff) or tensor_split(coeff, d) != t:
        raise BarlogError(
            f"kernel coefficient of {(w1, w2)} in {direction} does not "
            "split as its theta monomial")
    return coeff
