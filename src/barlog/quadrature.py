"""Adaptive Gauss-Legendre quadrature of form words along polyline
contours: the oracle behind hyperlog.eval_quadrature, and the package's
only user of numpy, which is loaded with this module on the first
integration.

The quadrature works level by level.  A level holds each path segment's
16-node panels as arrays, pulls each letter back once over all panels,
and integrates each word suffix once, in one array pass over all
panels, so the words of a polynomial share their common suffixes.
Levels double the panels until two successive values agree to tol / 2,
and a quadrature that does not get there raises DomainError.
"""

from __future__ import annotations

import numpy as np

from .errors import (AlphabetError, ContourError, DivergentTermError,
                     DomainError)

_GL_N = 16


def _gl_tables(n=_GL_N):
    x, w = np.polynomial.legendre.leggauss(n)
    # Legendre values P_j(x_i), j = 0..n.
    P = np.zeros((n + 1, n))
    P[0] = 1.0
    P[1] = x
    for j in range(1, n):
        P[j + 1] = ((2 * j + 1) * x * P[j] - j * P[j - 1]) / (j + 1)
    # Value -> coefficient matrix: c_j = (2j+1)/2 sum_i w_i g_i P_j(x_i).
    C = ((2 * np.arange(n) + 1) / 2)[:, None] * P[:n] * w[None, :]
    # Antiderivative basis at the nodes: T_0 = x + 1,
    # T_j = (P_{j+1} - P_{j-1}) / (2j+1) for j >= 1 (zero at x = -1).
    T = np.zeros((n, n))
    T[0] = x + 1.0
    for j in range(1, n):
        T[j] = (P[j + 1] - P[j - 1]) / (2 * j + 1)
    cum = T.T @ C       # node values of g -> node values of its integral
    return x, w, cum


_GL_X, _GL_W, _GL_CUM = _gl_tables()

# Singular denominators of each letter's coefficient functions.
_LETTER_ATOMS = {
    "z1": ("z1",), "z11": ("1-z1",),
    "z2": ("z2",), "z22": ("1-z2",),
    "z12": ("1-z1z2",), "z12_1": ("1-z1z2",), "z12_2": ("1-z1z2",),
}

_ATOM_EVAL = {
    "z1": lambda z1, z2: z1,
    "1-z1": lambda z1, z2: 1 - z1,
    "z2": lambda z1, z2: z2,
    "1-z2": lambda z1, z2: 1 - z2,
    "1-z1z2": lambda z1, z2: 1 - z1 * z2,
}


def _form_pullback(tag, z1, z2, dz1, dz2):
    """omega(gamma(t)) gamma'(t) for one letter along a linear leg;
    vectorized over node arrays.  Components with zero derivative are
    skipped so axis-riding legs never divide by zero."""
    out = np.zeros_like(z1, dtype=complex)
    if tag == "z1":
        if dz1 != 0:
            out += dz1 / z1
    elif tag == "z11":
        if dz1 != 0:
            out += dz1 / (1 - z1)
    elif tag == "z2":
        if dz2 != 0:
            out += dz2 / z2
    elif tag == "z22":
        if dz2 != 0:
            out += dz2 / (1 - z2)
    elif tag in ("z12", "z12_1", "z12_2"):
        den = 1 - z1 * z2
        if tag != "z12_2" and dz1 != 0:
            out += z2 * dz1 / den
        if tag != "z12_1" and dz2 != 0:
            out += z1 * dz2 / den
    else:
        raise AlphabetError(f"unknown form letter {tag!r}")
    return out


def _panel_breaks(graded, pieces):
    """Breakpoints in [0, 1] for one segment: geometric toward 0 when
    graded (for integrable singular starts), each geometric cell split
    uniformly into `pieces`."""
    if graded:
        base = [0.0] + [2.0 ** -g for g in range(44, -1, -1)]
    else:
        base = [0.0, 1.0]
    breaks = []
    for a, b in zip(base[:-1], base[1:]):
        for q in range(pieces):
            breaks.append(a + (b - a) * q / pieces)
    breaks.append(1.0)
    return breaks


def _build_panels(path, pieces, graded_first):
    """Gauss-Legendre panels of each path segment, in path order: one
    (z1 nodes, z2 nodes, dz1, dz2, half-widths) tuple per segment, with
    node arrays of shape (P, 16) and half-widths of shape (P,)."""
    segments = []
    for seg, (p0, p1) in enumerate(zip(path[:-1], path[1:])):
        z10, z20 = complex(p0[0]), complex(p0[1])
        dz1, dz2 = complex(p1[0]) - z10, complex(p1[1]) - z20
        breaks = np.array(_panel_breaks(graded_first and seg == 0, pieces))
        a, b = breaks[:-1], breaks[1:]
        half = (b - a) / 2.0
        tn = ((a + b) / 2.0)[:, None] + half[:, None] * _GL_X
        segments.append((z10 + tn * dz1, z20 + tn * dz2, dz1, dz2, half))
    return segments


def _level_integrals(words, segments):
    """Iterated integrals of words over one level's panels, as a dict
    word -> value.  The innermost letter is the last one.

    Each letter is pulled back once over all panels, and each word
    suffix is integrated once, in one array pass over all panels: its
    node values are the panel start values plus the local integrals
    g @ _GL_CUM.T, and the start values are the exclusive cumulative
    sum of the panel totals g @ _GL_W.  Words are taken in the order of
    their reversed letters, so the words sharing a suffix come together
    and only the node values of the current suffix chain are kept.
    """
    half = np.concatenate([s[4] for s in segments])
    pullbacks = {}
    # chain[j] = (letter, node values, integral) of a suffix of length j
    chain = [(None, np.ones((len(half), _GL_N), dtype=complex), 1.0 + 0j)]
    out = {}
    for word in sorted(words, key=lambda w: w[::-1]):
        k = 0
        while (k < len(word) and k + 1 < len(chain)
               and chain[k + 1][0] == word[-1 - k]):
            k += 1
        del chain[k + 1:]
        for tag in reversed(word[:len(word) - k]):
            if tag not in pullbacks:
                pullbacks[tag] = np.concatenate(
                    [_form_pullback(tag, *s[:4]) for s in segments])
            g = pullbacks[tag] * chain[-1][1]
            ends = np.cumsum(half * (g @ _GL_W))
            starts = np.concatenate(([0j], ends[:-1]))
            nodes = starts[:, None] + half[:, None] * (g @ _GL_CUM.T)
            chain.append((tag, nodes, ends[-1]))
        out[word] = chain[-1][2]
    return out


def _check_contour(path, atoms, skip_start):
    for seg, (p0, p1) in enumerate(zip(path[:-1], path[1:])):
        z10, z20 = complex(p0[0]), complex(p0[1])
        dz1 = complex(p1[0]) - z10
        dz2 = complex(p1[1]) - z20
        for t in np.linspace(0.0, 1.0, 33):
            if seg == 0 and skip_start and t < 0.05:
                continue
            z1 = z10 + t * dz1
            z2 = z20 + t * dz2
            for atom in atoms:
                if abs(_ATOM_EVAL[atom](z1, z2)) < 1e-9:
                    raise ContourError(
                        f"contour touches {atom} = 0 near t={t} of "
                        f"segment {seg}")


def iterated_integral(p, path, tol, max_refine):
    """Iterated integral of a form polynomial along a polyline; see
    hyperlog.eval_quadrature."""
    path = [(complex(a), complex(b)) for a, b in path]
    if len(path) < 2:
        raise ValueError("path needs at least two points")
    if not np.isfinite(path).all():
        raise DomainError(f"path points must be finite: {path}")
    atoms = set()
    for w in p.terms:
        for x in w:
            atoms.update(_LETTER_ATOMS[x])
    z1s, z2s = path[0]
    start_singular = any(abs(_ATOM_EVAL[a](z1s, z2s)) < 1e-9
                         for a in _ATOM_EVAL)
    _check_contour(path, atoms, skip_start=start_singular)
    if start_singular:
        for w in p.terms:
            if w and w[-1] in ("z1", "z2"):
                raise DivergentTermError(
                    f"word {w} ends in a pure-log letter; its integral "
                    "from a singular base point diverges")
    prev, diff = None, float("inf")
    pieces = 2
    for _ in range(max_refine + 1):
        values = _level_integrals(
            p.terms, _build_panels(path, pieces, graded_first=start_singular))
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
