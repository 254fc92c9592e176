"""Incremental exact row reduction over the rationals.

Vectors are sparse dicts mapping orderable column keys to coefficients.
A coefficient is an int or a Fraction: num() keeps every integral value
an int, and a Fraction appears only where a pivot inverse (or a parsed
coefficient) is non-integral.  The two compare and hash equal, so the
choice never changes a result, a dict order or a printed value; it only
keeps integer work out of Fraction arithmetic.  fractions (which loads
decimal and numbers too) is imported at the first coefficient that is
not an int, so integral work never loads it.

The reducer keeps its stored rows fully reduced (RREF) and, for each
stored row, an expression of that row as a combination of the vectors
fed in so far.  Feeding vectors one by one therefore yields, in a
single pass, both a canonical spanning set and the dependencies
(nullspace combinations) among the inputs.
"""

from __future__ import annotations

# fractions.Fraction once _fraction() has imported it.  Read it as
# `Fraction or _fraction()`: a Fraction made elsewhere can reach this
# module before it has looked the class up.
Fraction = None


def _fraction():
    """Import fractions.Fraction, bind it to Fraction and return it."""
    global Fraction
    from fractions import Fraction
    return Fraction


def num(c):
    """c as an exact coefficient: an int when c is integral, otherwise
    a Fraction."""
    if type(c) is int:
        return c
    fraction = Fraction or _fraction()
    if type(c) is not fraction:
        c = fraction(c)
    return c.numerator if c.denominator == 1 else c


def vec_scale(vec, coeff):
    coeff = num(coeff)
    if not coeff:
        return {}
    return {k: num(v * coeff) for k, v in vec.items()}


def vec_add_into(target, vec, coeff=1):
    """target += coeff * vec, dropping zeros; mutates and returns target."""
    if type(coeff) is not int:
        coeff = num(coeff)
    if not coeff:
        return target
    for k, v in vec.items():
        c = target.get(k)
        c = coeff * v if c is None else c + coeff * v
        if c:
            if (type(c) is not int and type(c) is (Fraction or _fraction())
                    and c.denominator == 1):
                c = c.numerator
            target[k] = c
        else:
            target.pop(k, None)
    return target


class RowReducer:
    """Incremental reduced-row-echelon form with combination tracking."""

    def __init__(self):
        # pivot column -> (row vector, {input tag: coefficient})
        self._rows = {}

    @property
    def rank(self):
        return len(self._rows)

    def _reduce(self, vec):
        """Return (residual, representation) with
        vec == residual + sum(rep[tag] * input_tag)."""
        residual = {k: num(v) for k, v in vec.items() if v}
        rep = {}
        # Stored rows are fully reduced, so each stored row is zero on
        # every pivot column but its own: one pass suffices and no new
        # pivot columns can appear in the residual.
        for piv in [k for k in residual if k in self._rows]:
            c = residual.get(piv)
            if not c:
                continue
            row, combo = self._rows[piv]
            vec_add_into(residual, row, -c)
            vec_add_into(rep, combo, c)
        return residual, rep

    def add(self, vec, tag):
        """Feed a vector labelled by a hashable tag.

        Returns None if the vector enlarged the span.  Otherwise
        returns a dependency {tag_i: c_i} with sum(c_i * input_i) == 0
        and coefficient 1 on the newly fed tag.
        """
        residual, rep = self._reduce(vec)
        if not residual:
            dep = {tag: 1}
            vec_add_into(dep, rep, -1)
            return dep
        pivot = min(residual)
        lead = residual[pivot]
        # A unit pivot is its own inverse; only other pivots divide.
        if lead in (1, -1):
            inv = lead
        else:
            inv = num((Fraction or _fraction())(1) / lead)
        row = vec_scale(residual, inv)
        combo = vec_add_into({tag: inv}, rep, -inv)
        # Back-substitute to keep all stored rows fully reduced.
        for other_piv, (other_row, other_combo) in list(self._rows.items()):
            c = other_row.get(pivot)
            if c:
                vec_add_into(other_row, row, -c)
                vec_add_into(other_combo, combo, -c)
        self._rows[pivot] = (row, combo)
        return None

    def solve(self, vec):
        """Express vec over the inputs fed so far.

        Returns {tag: coefficient} or None if vec is not in the span.
        """
        residual, rep = self._reduce(vec)
        if residual:
            return None
        return rep

    def contains(self, vec):
        residual, _ = self._reduce(vec)
        return not residual

    def rows(self):
        """Stored rows as (pivot, row, combo), sorted by pivot."""
        return [(piv, dict(row), dict(combo))
                for piv, (row, combo) in sorted(self._rows.items())]


def canonical_basis(vectors):
    """Reduced row echelon basis of the span of the given sparse
    vectors, as a list of dicts ordered by pivot."""
    red = RowReducer()
    for vec in vectors:
        red.add(vec, 0)  # one shared tag: each combination stays one entry
    return [row for _, row, _ in red.rows()]
