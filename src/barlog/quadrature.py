"""Adaptive Gauss-Legendre quadrature of form words along polyline
contours: the oracle behind hyperlog.eval_quadrature, in plain Python.

The quadrature works level by level.  A level splits every path
segment into the same number of equal panels of 16 Gauss-Legendre
nodes, pulls each letter back once over all nodes, and integrates each
word suffix once, so the words of a polynomial share their common
suffixes.  Levels double the panels until two successive values agree
to tol / 2, and a quadrature that does not get there raises DomainError.

Plain panels suffice because every integral they are given is analytic
on each segment, and Gauss quadrature converges geometrically on such
integrands.  Away from the start this holds because the contour keeps
off every singular locus.  At a singular start, where some letter's
atom vanishes, the first leg is straight, every pulled-back letter has
at most a simple pole at t = 0, and the innermost letter is regular
there; so by induction every iterated integral along that leg is O(t)
and analytic, and the next letter's simple pole times it is analytic
again.  Words that break these conditions diverge and are rejected
before any panel is built.

A path whose coordinates are all int or float is integrated in floats,
and any other path (one with a complex coordinate, say) in complex
numbers.  For real operands complex +, * and /
give the float result in the real part and +-0.0 in the imaginary
part, so on CPython 3.10 and 3.11 a real path and the same path as
complex give the same bits (tested).  From 3.12 on, sum() adds floats
with compensation, so there the two may differ in the last bits.
"""

from __future__ import annotations

import cmath
import math
from operator import mul

from .errors import (AlphabetError, ContourError, DivergentTermError,
                     DomainError)
from .hyperlog import check_point, check_tol

_GL_N = 16


def _legendre(n, x):
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p_prev, p = 1.0, x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, p_prev


def _gl_tables(n=_GL_N):
    """Nodes x and weights w of n-point Gauss-Legendre on [-1, 1] in
    ascending order, and the matrix cum taking the node values of a
    polynomial g of degree < n to the node values of its integral from
    -1.  n is even."""
    half = []
    for i in range(n // 2):
        # Newton on P_n from the asymptotic position of its i-th root;
        # it has converged to rounding after four steps.
        t = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(6):
            p, p_prev = _legendre(n, t)
            dp = n * (t * p - p_prev) / (t * t - 1)
            t -= p / dp
        half.append((t, 2 / ((1 - t * t) * dp * dp)))
    x = [-t for t, _ in half] + [t for t, _ in reversed(half)]
    w = [wt for _, wt in half] + [wt for _, wt in reversed(half)]
    # Legendre values P[j][i] = P_j(x_i), j = 0..n.
    P = [[1.0] * n, list(x)]
    for j in range(1, n):
        P.append([((2 * j + 1) * xi * a - j * b) / (j + 1)
                  for xi, a, b in zip(x, P[j], P[j - 1])])
    # Node values -> Legendre coefficients:
    # c_j = (2j+1)/2 sum_k w_k g_k P_j(x_k).
    C = [[(2 * j + 1) / 2 * P[j][k] * w[k] for k in range(n)]
         for j in range(n)]
    # Antiderivative basis at the nodes: T_0 = x + 1,
    # T_j = (P_{j+1} - P_{j-1}) / (2j+1) for j >= 1 (zero at x = -1).
    T = [[xi + 1.0 for xi in x]]
    for j in range(1, n):
        T.append([(a - b) / (2 * j + 1) for a, b in zip(P[j + 1], P[j - 1])])
    cum = tuple(tuple(sum(T[j][i] * C[j][k] for j in range(n))
                      for k in range(n)) for i in range(n))
    return tuple(x), tuple(w), cum


_GL_X, _GL_W, _GL_CUM = _gl_tables()

# Singular denominators of each letter's coefficient functions.
_LETTER_ATOMS = {
    "z1": ("z1",), "z11": ("1-z1",),
    "z2": ("z2",), "z22": ("1-z2",),
    "z12": ("1-z1z2",), "z12_1": ("1-z1z2",), "z12_2": ("1-z1z2",),
}

# Each atom along a leg (z1 + t dz1, z2 + t dz2), as the coefficients
# (c0, c1, c2) of its polynomial c0 + c1 t + c2 t^2; c0 is its value at
# the start.
_ATOM_POLY = {
    "z1": lambda z1, z2, dz1, dz2: (z1, dz1, 0),
    "1-z1": lambda z1, z2, dz1, dz2: (1 - z1, -dz1, 0),
    "z2": lambda z1, z2, dz1, dz2: (z2, dz2, 0),
    "1-z2": lambda z1, z2, dz1, dz2: (1 - z2, -dz2, 0),
    "1-z1z2": lambda z1, z2, dz1, dz2: (1 - z1 * z2, -(z1 * dz2 + z2 * dz1),
                                        -dz1 * dz2),
}


def _form_pullback(tag, z1, z2, dz1, dz2):
    """omega(gamma(t)) gamma'(t) for one letter at the point (z1, z2)
    of a linear leg with derivative (dz1, dz2).  Components with zero
    derivative are skipped, so axis-riding legs never divide by zero.
    Plain arithmetic, so z1 and z2 may also be arrays of points.  The
    letter is a key of _LETTER_ATOMS; iterated_integral checks it."""
    out = 0.0
    if tag == "z1":
        if dz1 != 0:
            out = dz1 / z1
    elif tag == "z11":
        if dz1 != 0:
            out = dz1 / (1 - z1)
    elif tag == "z2":
        if dz2 != 0:
            out = dz2 / z2
    elif tag == "z22":
        if dz2 != 0:
            out = dz2 / (1 - z2)
    else:
        den = 1 - z1 * z2
        if tag != "z12_2" and dz1 != 0:
            out = out + z2 * dz1 / den
        if tag != "z12_1" and dz2 != 0:
            out = out + z1 * dz2 / den
    return out


def _build_panels(path, pieces):
    """Nodes of one level: each path segment split into `pieces` equal
    panels.  One (z1 nodes, z2 nodes, dz1, dz2) tuple per segment, in
    path order; the node lists run over the segment's panels in order,
    _GL_N nodes to a panel."""
    ts = [(q + (1 + x) / 2) / pieces for q in range(pieces) for x in _GL_X]
    segments = []
    for (z10, z20), (z11, z21) in zip(path[:-1], path[1:]):
        dz1, dz2 = z11 - z10, z21 - z20
        segments.append(([z10 + t * dz1 for t in ts],
                         [z20 + t * dz2 for t in ts], dz1, dz2))
    return segments


def _level_integrals(words, segments):
    """Iterated integrals of words over one level's panels, as a dict
    word -> value.  The innermost letter is the last one.

    Each letter is pulled back once over all nodes, and each word
    suffix is integrated once over all panels: its value is the sum of
    the panel totals half * (w . g).  A proper suffix also needs its
    node values, the panel start values plus half * (_GL_CUM g); a
    whole word needs only its total.  Words are taken in the order of
    their reversed letters, so the words sharing a suffix come together
    and only the node values of the current suffix chain are kept.
    """
    pieces = len(segments[0][0]) // _GL_N
    half = 0.5 / pieces
    proper = {w[i:] for w in words for i in range(1, len(w))}
    pullbacks = {}
    # chain[j] = (letter, node values or None, integral) of a suffix of
    # length j; the empty suffix has node values 1.
    chain = [(None, None, 1.0)]
    out = {}
    for word in sorted(words, key=lambda w: w[::-1]):
        k = 0
        while (k < len(word) and k + 1 < len(chain)
               and chain[k + 1][0] == word[-1 - k]):
            k += 1
        del chain[k + 1:]
        for j in range(len(word) - k - 1, -1, -1):
            tag = word[j]
            g = pullbacks.get(tag)
            if g is None:
                g = pullbacks[tag] = [
                    _form_pullback(tag, a, b, dz1, dz2)
                    for z1n, z2n, dz1, dz2 in segments
                    for a, b in zip(z1n, z2n)]
            inner = chain[-1][1]
            if inner is not None:
                g = list(map(mul, g, inner))
            keep = word[j:] in proper
            nodes = [] if keep else None
            start = 0.0
            for lo in range(0, len(g), _GL_N):
                gp = g[lo:lo + _GL_N]
                if keep:
                    nodes.extend(start + half * sum(map(mul, row, gp))
                                 for row in _GL_CUM)
                start += half * sum(map(mul, _GL_W, gp))
            chain.append((tag, nodes, start))
        out[word] = chain[-1][2]
    return out


def _zeros(c0, c1, c2):
    """The zeros of c0 + c1 t + c2 t^2, a polynomial that is not zero."""
    if c2 == 0:
        return [] if c1 == 0 else [-c0 / c1]
    root = cmath.sqrt(c1 * c1 - 4 * c2 * c0)
    # The sign that adds c1 and root without cancellation; the other
    # zero is then c0 / (c2 t).
    q = -(c1 + root if (c1.conjugate() * root).real >= 0 else c1 - root) / 2
    return [q / c2, c0 / q] if q else [0, 0]


def _check_contour(path, atoms):
    """ContourError where a leg meets the zero set of an atom.  Along a
    leg each atom is a polynomial of degree <= 2 in t, so its zeros are
    solved for, and the leg is rejected where the atom, at the point of
    [0, 1] nearest a zero, is below 1e-9.  A zero at the start of the
    first leg is divided out first: a singular start is judged by
    _check_start."""
    for seg, ((z10, z20), (z11, z21)) in enumerate(zip(path[:-1], path[1:])):
        for atom in atoms:
            coeffs = _ATOM_POLY[atom](z10, z20, z11 - z10, z21 - z20)
            while seg == 0 and coeffs and abs(coeffs[0]) < 1e-9:
                coeffs = coeffs[1:]
            coeffs += (0,) * (3 - len(coeffs))
            if not any(coeffs):
                raise ContourError(
                    f"segment {seg} lies on the locus {atom} = 0")
            for zero in _zeros(*coeffs):
                t = min(max(zero.real, 0.0), 1.0)
                if abs(coeffs[0] + t * (coeffs[1] + t * coeffs[2])) < 1e-9:
                    raise ContourError(
                        f"contour touches {atom} = 0 near t={t:.6g} of "
                        f"segment {seg}")


def _check_start(words, path, vanishing):
    """Reject the words whose integral from a start where the atoms
    `vanishing` vanish diverges: a pure-log innermost letter, an
    innermost letter whose atom vanishes there, and any letter with a
    pole of order >= 2 there.  Only z12_1 and z12_2 can have one: where
    1 - z1 z2 has a double zero at the start of the first leg, but their
    sum z12 has a simple pole."""
    if not vanishing:
        return
    (z1, z2), (e1, e2) = path[0], path[1]
    double = set()
    if "1-z1z2" in vanishing and abs(z1 * (e2 - z2) + z2 * (e1 - z1)) < 1e-9:
        double = {"z12_1", "z12_2"}
    for w in words:
        if not w:
            continue
        if w[-1] in ("z1", "z2"):
            raise DivergentTermError(
                f"word {w} ends in a pure-log letter; its integral "
                "from a singular base point diverges")
        if vanishing.intersection(_LETTER_ATOMS[w[-1]]):
            raise DivergentTermError(
                f"the innermost letter of word {w} is singular at the "
                "start; its integral diverges")
        if double.intersection(w):
            raise DivergentTermError(
                f"word {w} has a letter with a double pole at the "
                "start; its integral diverges")


def iterated_integral(p, path, tol, max_refine):
    """Iterated integral of a form polynomial along a polyline; see
    hyperlog.eval_quadrature."""
    check_tol(tol)
    if not (isinstance(max_refine, int) and max_refine >= 0):
        raise ValueError(
            f"max_refine must be an int >= 0, got {max_refine!r}")
    path = [check_point(point, "a path point") for point in path]
    number = (float if all(isinstance(z, (int, float)) for point in path
                           for z in point) else complex)
    path = [(number(a), number(b)) for a, b in path]
    if len(path) < 2:
        raise ValueError("path needs at least two points")
    if not all(cmath.isfinite(z) for point in path for z in point):
        raise DomainError(f"path points must be finite: {path}")
    atoms = set()
    for w in p.terms:
        for x in w:
            if x not in _LETTER_ATOMS:
                raise AlphabetError(f"unknown form letter {x!r} in word {w}")
            atoms.update(_LETTER_ATOMS[x])
    z1s, z2s = path[0]
    vanishing = {a for a, f in _ATOM_POLY.items()
                 if abs(f(z1s, z2s, 0, 0)[0]) < 1e-9}
    _check_contour(path, atoms)
    _check_start(p.terms, path, vanishing)
    prev, diff = None, float("inf")
    pieces = 2
    for _ in range(max_refine + 1):
        values = _level_integrals(p.terms, _build_panels(path, pieces))
        total = 0.0 + 0j
        for w, c in p.terms.items():
            total += complex(c) * values[w]
        if prev is not None:
            diff = abs(total - prev)
            if diff < tol / 2:
                return total
        prev = total
        pieces *= 2
    raise DomainError(
        f"quadrature did not converge in {max_refine} refinements: "
        f"last difference {diff:.3g}, tol {tol:.3g}")
