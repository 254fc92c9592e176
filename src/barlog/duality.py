"""The duality between the integrable forms and the product bases of
the enveloping algebra: the letterwise theta substitution, the tensor
splitting isomorphisms iota (deconcatenation followed by the two
letter projections), the canonical integrable representative
phi(W', W'') of a product-basis pair, and the inverses of the
splittings by linearity from phi.  certified_kernel, and phi through
it, is the one gate between the kernel decomposition and its users: it
certifies each (degree, direction) kernel once per process, by one
check of a combination of all its coefficients with fixed-seed random
weights, and names the failing pair when the check fails.
"""

from __future__ import annotations

from functools import cache

from .errors import AlphabetError, BarlogError, DomainError
from .ipbenv import (_as_direction, check_degree, omega_decomposition,
                     w0_pairs)
from .linalg import vec_add_into
from .words import (FORM_BASE, WordPoly, _check_letters, _shuffle_words,
                    shuffle)


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
    """Tensor splitting of an integrable form polynomial, as
    {(W', W''): coeff}: Chen's condition (DomainError naming the first
    failing degree and cut), then tensor_split(p, direction)."""
    # formspace loads only where a form is checked, not with duality.
    from .formspace import _chen_failure

    if failure := _chen_failure(p):
        raise DomainError(
            "polynomial does not satisfy the integrability condition "
            "at degree %d, cut %d" % failure)
    return tensor_split(p, direction)


def tensor_split(p, direction="1x2"):
    """Sum over the deconcatenation cuts of (left projection) x (right
    projection), without the integrability check of iota, as a dict
    {(W', W''): nonzero coeff} whose words are over the direction's
    left and right alphabets.  Each word is projected once per side;
    its surviving cuts run from just after the last right-killed
    letter to the first left-killed one."""
    d = _as_direction(direction)
    acc = {}
    for w, c in p.terms.items():
        left = [d.left_map[x] for x in w] + [None]
        right = [None] + [d.right_map[x] for x in w]
        first, last = len(w) - right[::-1].index(None), left.index(None)
        vec_add_into(acc, {(tuple(left[:l]), tuple(right[l + 1:])): 1
                           for l in range(first, last + 1)}, c)
    return acc


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
    """The unique integrable preimage of a tensor {(W', W''): coeff},
    by linearity from phi; AlphabetError names a letter of W' outside
    the direction's left alphabet or of W'' outside its right one.
    iota is a shuffle morphism, injective on the integrable forms, that
    sends phi(W', W'') to theta(W') x theta(W'') and z1^a, z2^c to the
    powers of the log letters of their factors; so each tensor word,
    split by _log_split on both sides, pulls back to phi of the theta
    preimages shuffled with z1^a and z2^c."""
    d = _as_direction(direction)
    _check_letters(d.left_alphabet, (w1 for w1, _ in t))
    _check_letters(d.right_alphabet, (w2 for _, w2 in t))
    t = {pair: c for pair, c in t.items() if c}
    # A pure-log tensor never reaches phi, so the cap is checked here.
    check_degree(max((len(w1) + len(w2) for w1, w2 in t), default=0), cap)
    left_log = _log_letter(d.left_alphabet)
    right_log = _log_letter(d.right_alphabet)
    from_left = {v: k for k, v in d.theta_left.items()}
    from_right = {v: k for k, v in d.theta_right.items()}
    by_logs = {}
    for (u1, u2), c in t.items():
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
    is the pair's coefficient in the kernel decomposition; it is read
    only from a kernel that certified_kernel has certified."""
    d = _as_direction(direction)
    w1, w2 = tuple(w1), tuple(w2)
    # The words are checked before any kernel is built.
    theta_pair(w1, w2, d)
    s = len(w1) + len(w2)
    check_degree(s, cap)
    return _certified_kernel(s, d.name)[w1, w2]


def certified_kernel(s, direction="1x2", cap=None):
    """The degree-s kernel decomposition, {(W', W''): phi(W', W'')},
    once it is certified: no pair outside the admissible ones carries a
    coefficient, and every coefficient satisfies Chen's condition and
    splits as its pair's theta monomial (BarlogError if not).

    Both checks are linear, so they run once per (degree, direction),
    on the combination R = sum_p r_p K_p of the coefficients K_p with
    nonzero 64-bit weights r_p: R must satisfy Chen's condition and
    split as sum_p r_p theta(W') x theta(W'').  The check is randomized
    with a fixed seed, so every run takes the same weights, and the
    output never depends on them.  One wrong coefficient is always
    caught, since its defect is multiplied by r_p != 0 and iota is
    injective on the integrable forms; wrong coefficients escape
    together only if the weights cancel their defects, which has
    probability at most 2^-63.  When R fails, each coefficient is
    checked on its own, and the error names the first that fails."""
    d = _as_direction(direction)
    check_degree(s, cap)
    return _certified_kernel(s, d.name)


# The weights of the kernel certificate: the splitmix64 stream (Steele,
# Lea and Flood, 2014) of a fixed seed ("barlog" in ASCII), each made
# odd so that none is 0.
_SEED = 0x6261726C6F67
_MASK64 = (1 << 64) - 1


def _weights(n):
    x, out = _SEED, []
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = ((x ^ x >> 30) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ z >> 31 | 1)
    return out


def _splits(p, t, d):
    """Whether p satisfies Chen's condition and tensor_split gives t."""
    # formspace loads only where a form is checked, not with duality.
    from .formspace import _chen_failure

    return not _chen_failure(p) and tensor_split(p, d) == t


@cache
def _certified_kernel(s, direction):
    """omega_decomposition(s, direction) once certified_kernel's checks
    pass; the caller has checked the cap, so the kernel is built at s."""
    d = _as_direction(direction)
    kernel = omega_decomposition(s, direction, cap=s)
    pairs = w0_pairs(s, d)
    if not {p for p, c in kernel.items() if c} <= set(pairs):
        raise BarlogError(
            f"degree-{s} kernel in {direction} has a non-admissible pair")
    combination, image = {}, {}
    for r, (w1, w2) in zip(_weights(len(pairs)), pairs):
        vec_add_into(combination, kernel[w1, w2].terms, r)
        image[theta_pair(w1, w2, d)] = r
    if _splits(WordPoly._from_terms(FORM_BASE, combination), image, d):
        return kernel
    for pair in pairs:
        if not _splits(kernel[pair], {theta_pair(*pair, d): 1}, d):
            raise BarlogError(
                f"kernel coefficient of {pair} in {direction} does not "
                "split as its theta monomial")
    # Unreachable while both checks are linear.
    raise BarlogError(f"degree-{s} kernel in {direction} does not split")
