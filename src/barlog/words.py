"""Free shuffle algebra on words with exact rational coefficients.

Words are tuples of letter tags.  Two families of tags are used: the
lower-case form letters (z1, z11, z2, z22, z12, and the projected
letters z12_1, z12_2) and the upper-case Lie letters (Z1, Z11, Z2, Z22,
Z12).  A polynomial is a finite rational linear combination of words
over one fixed alphabet.  A coefficient is an int or a Fraction (see
linalg.num): the two compare and hash equal, and a Fraction appears
only when a pivot inverse or a parsed coefficient is non-integral.

The module provides the polynomial type, WordPoly, and the commutative
shuffle product.  A sum over pairs of words, such as a tensor
splitting, is a plain {(W', W''): coeff} dict.
"""

from __future__ import annotations

from functools import cache

from .errors import AlphabetError
from .linalg import num, vec_add_into

# Alphabets.  The order of letters fixes the canonical (degree, lex)
# ordering of words used for deterministic output.
FORM_BASE = ("z1", "z11", "z2", "z22", "z12")
LIE_BASE = ("Z1", "Z11", "Z2", "Z22", "Z12")


def word_sort_key(alphabet):
    """Sort key on words: degree first, then lexicographic in the
    alphabet's letter order."""
    index = {a: i for i, a in enumerate(alphabet)}.__getitem__

    def key(word):
        return (len(word), tuple(map(index, word)))

    return key


def _check_letters(alphabet, words):
    stray = set().union(*words).difference(alphabet)
    if stray:
        raise AlphabetError(
            f"letters {sorted(map(repr, stray))} not in alphabet {alphabet}")


class WordPoly:
    """A finite rational linear combination of words over one alphabet.

    terms maps a word to a nonzero coefficient.  __init__ sums its
    terms and checks their letters before it drops the zeros, so that a
    stray letter is caught even where its coefficients cancel."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=()):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for word, coeff in items:
            word = tuple(word)
            acc[word] = acc.get(word, 0) + num(coeff)
        self.alphabet = tuple(alphabet)
        _check_letters(self.alphabet, acc)
        self.terms = {w: num(c) for w, c in acc.items() if c}

    @classmethod
    def _from_terms(cls, alphabet, terms):
        """cls(alphabet, terms) for terms that need no normalising: a
        dict whose keys are tuples and whose coefficients are nonzero
        and as num gives them.  The polynomial keeps that dict, in its
        order; only the letters are checked."""
        p = cls.__new__(cls)
        p.alphabet = tuple(alphabet)
        _check_letters(p.alphabet, terms)
        p.terms = terms
        return p

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet)

    @classmethod
    def unit(cls, alphabet):
        """The empty word with coefficient one."""
        return cls(alphabet, {(): 1})

    @classmethod
    def monomial(cls, alphabet, word, coeff=1):
        return cls(alphabet, {tuple(word): coeff})

    def _require_same_alphabet(self, other):
        if not isinstance(other, WordPoly) or other.alphabet != self.alphabet:
            raise AlphabetError(
                f"alphabet mismatch: {self.alphabet} vs "
                f"{getattr(other, 'alphabet', type(other))}")

    def __add__(self, other):
        self._require_same_alphabet(other)
        return type(self)(self.alphabet,
                          vec_add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, coeff):
        coeff = num(coeff)
        return type(self)(self.alphabet,
                          {w: c * coeff for w, c in self.terms.items()})

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.alphabet == other.alphabet
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def sorted_terms(self):
        key = word_sort_key(self.alphabet)
        return sorted(self.terms.items(), key=lambda item: key(item[0]))

    def degree_parts(self):
        """Split into grading-homogeneous components, keyed by degree."""
        parts = {}
        for w, c in self.terms.items():
            parts.setdefault(len(w), {})[w] = c
        return {s: type(self)(self.alphabet, t)
                for s, t in sorted(parts.items())}

    def __repr__(self):
        bits = [f"{c}*({','.join(w) or '1'})"
                for w, c in self.sorted_terms()]
        return f"{type(self).__name__}({' + '.join(bits) or '0'})"


# -- word-level products ----------------------------------------------

@cache
def _shuffle_words(u, v):
    """Shuffle two words; returns {word: integer multiplicity}.

    Cached; callers must not mutate the returned dict.
    """
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, m in _shuffle_words(u[:-1], v).items():
        wu = w + (u[-1],)
        out[wu] = out.get(wu, 0) + m
    for w, m in _shuffle_words(u, v[:-1]).items():
        wv = w + (v[-1],)
        out[wv] = out.get(wv, 0) + m
    return out


def shuffle(p, q):
    """Shuffle product, extended bilinearly from words."""
    p._require_same_alphabet(q)
    acc = {}
    for u, c in p.terms.items():
        for v, d in q.terms.items():
            cd = c * d
            for w, m in _shuffle_words(u, v).items():
                acc[w] = acc.get(w, 0) + cd * m
    return WordPoly(p.alphabet, acc)
