"""Free shuffle algebra on words with exact rational coefficients.

Words are tuples of letter tags.  Two families of tags are used: the
lower-case form letters (z1, z11, z2, z22, z12, and the projected
letters z12_1, z12_2) and the upper-case Lie letters (Z1, Z11, Z2, Z22,
Z12).  A polynomial is a finite rational linear combination of words
over one fixed alphabet.  A coefficient is an int or a Fraction (see
linalg.num): the two compare and hash equal, and a Fraction appears
only when a pivot inverse or a parsed coefficient is non-integral.

The module provides the commutative shuffle product, the concatenation
product, the deconcatenation coproduct and the antipode; together these
make the word space a graded commutative Hopf algebra.
"""

from __future__ import annotations

from functools import cache

from .errors import AlphabetError
from .linalg import num, vec_add_into

# Alphabets.  The order of letters fixes the canonical (degree, lex)
# ordering of words used for deterministic output.
FORM_BASE = ("z1", "z11", "z2", "z22", "z12")
FORM_MAIN1 = ("z1", "z11", "z12_1")   # one-forms in dz1 only
FORM_MAIN2 = ("z2", "z22", "z12_2")   # one-forms in dz2 only
FORM_PURE1 = ("z1", "z11")
FORM_PURE2 = ("z2", "z22")
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
    """A finite rational linear combination of words over one alphabet."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=()):
        self.alphabet = tuple(alphabet)
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for word, coeff in items:
            word = tuple(word)
            acc[word] = acc.get(word, 0) + num(coeff)
        _check_letters(self.alphabet, acc)
        self.terms = {w: num(c) for w, c in acc.items() if c}

    # -- constructors -------------------------------------------------
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

    # -- basic algebra -------------------------------------------------
    def _require_same_alphabet(self, other):
        if not isinstance(other, WordPoly) or other.alphabet != self.alphabet:
            raise AlphabetError(
                f"alphabet mismatch: {self.alphabet} vs "
                f"{getattr(other, 'alphabet', type(other))}")

    def __add__(self, other):
        self._require_same_alphabet(other)
        return WordPoly(self.alphabet,
                        vec_add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, coeff):
        coeff = num(coeff)
        return WordPoly(self.alphabet,
                        {w: c * coeff for w, c in self.terms.items()})

    def __mul__(self, coeff):
        return self.scale(coeff)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, WordPoly)
                and self.alphabet == other.alphabet
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, word):
        return self.terms.get(tuple(word), 0)

    def sorted_terms(self):
        key = word_sort_key(self.alphabet)
        return sorted(self.terms.items(), key=lambda item: key(item[0]))

    def max_degree(self):
        return max((len(w) for w in self.terms), default=0)

    def degree_parts(self):
        """Split into grading-homogeneous components, keyed by degree."""
        parts = {}
        for w, c in self.terms.items():
            parts.setdefault(len(w), {})[w] = c
        return {s: WordPoly(self.alphabet, t) for s, t in sorted(parts.items())}

    def __repr__(self):
        if not self.terms:
            return "WordPoly(0)"
        bits = []
        for w, c in self.sorted_terms():
            word = "1" if not w else ",".join(w)
            bits.append(f"{c}*({word})")
        return "WordPoly(" + " + ".join(bits) + ")"


class TensorPoly:
    """A finite rational linear combination of pairs of words, the left
    and right factors over their own alphabets."""

    __slots__ = ("left_alphabet", "right_alphabet", "terms")

    def __init__(self, left_alphabet, right_alphabet, terms=()):
        self.left_alphabet = tuple(left_alphabet)
        self.right_alphabet = tuple(right_alphabet)
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (w1, w2), coeff in items:
            key = (tuple(w1), tuple(w2))
            acc[key] = acc.get(key, 0) + num(coeff)
        _check_letters(self.left_alphabet, (w1 for w1, _ in acc))
        _check_letters(self.right_alphabet, (w2 for _, w2 in acc))
        self.terms = {p: num(c) for p, c in acc.items() if c}

    @classmethod
    def zero(cls, left_alphabet, right_alphabet):
        return cls(left_alphabet, right_alphabet)

    @classmethod
    def monomial(cls, left_alphabet, right_alphabet, w1, w2, coeff=1):
        return cls(left_alphabet, right_alphabet,
                   {(tuple(w1), tuple(w2)): coeff})

    def _require_same_alphabets(self, other):
        if (not isinstance(other, TensorPoly)
                or other.left_alphabet != self.left_alphabet
                or other.right_alphabet != self.right_alphabet):
            raise AlphabetError("tensor alphabet mismatch")

    def __add__(self, other):
        self._require_same_alphabets(other)
        return TensorPoly(self.left_alphabet, self.right_alphabet,
                          vec_add_into(dict(self.terms), other.terms))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, coeff):
        coeff = num(coeff)
        return TensorPoly(self.left_alphabet, self.right_alphabet,
                          {p: c * coeff for p, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, TensorPoly)
                and self.left_alphabet == other.left_alphabet
                and self.right_alphabet == other.right_alphabet
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.left_alphabet, self.right_alphabet,
                     frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, w1, w2):
        return self.terms.get((tuple(w1), tuple(w2)), 0)

    def sorted_terms(self):
        lkey = word_sort_key(self.left_alphabet)
        rkey = word_sort_key(self.right_alphabet)
        return sorted(self.terms.items(),
                      key=lambda item: (lkey(item[0][0]), rkey(item[0][1])))

    def degree_parts(self):
        parts = {}
        for (w1, w2), c in self.terms.items():
            parts.setdefault(len(w1) + len(w2), {})[(w1, w2)] = c
        return {s: TensorPoly(self.left_alphabet, self.right_alphabet, t)
                for s, t in sorted(parts.items())}

    def shuffle_mul(self, other):
        """Componentwise shuffle product (the product of the tensor
        square of the shuffle algebra)."""
        self._require_same_alphabets(other)
        acc = {}
        for (a1, a2), c in self.terms.items():
            for (b1, b2), d in other.terms.items():
                cd = c * d
                for u1, m1 in _shuffle_words(a1, b1).items():
                    for u2, m2 in _shuffle_words(a2, b2).items():
                        key = (u1, u2)
                        acc[key] = acc.get(key, 0) + cd * m1 * m2
        return TensorPoly(self.left_alphabet, self.right_alphabet, acc)

    def __repr__(self):
        if not self.terms:
            return "TensorPoly(0)"
        bits = []
        for (w1, w2), c in self.sorted_terms():
            lhs = "1" if not w1 else ",".join(w1)
            rhs = "1" if not w2 else ",".join(w2)
            bits.append(f"{c}*({lhs})x({rhs})")
        return "TensorPoly(" + " + ".join(bits) + ")"


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


def concat(p, q):
    """Concatenation product, extended bilinearly from words."""
    p._require_same_alphabet(q)
    acc = {}
    for u, c in p.terms.items():
        for v, d in q.terms.items():
            w = u + v
            acc[w] = acc.get(w, 0) + c * d
    return WordPoly(p.alphabet, acc)


def deconcat(p):
    """Deconcatenation coproduct: sum over all cut positions."""
    acc = {}
    for w, c in p.terms.items():
        for l in range(len(w) + 1):
            key = (w[:l], w[l:])
            acc[key] = acc.get(key, 0) + c
    return TensorPoly(p.alphabet, p.alphabet, acc)


def antipode(p):
    """Antipode: reverse each word and multiply by (-1)^length."""
    acc = {}
    for w, c in p.terms.items():
        rw = w[::-1]
        acc[rw] = acc.get(rw, 0) + (c if len(w) % 2 == 0 else -c)
    return WordPoly(p.alphabet, acc)


def counit(p):
    """Counit: the coefficient of the empty word."""
    return p.coefficient(())


# -- serialization ----------------------------------------------------

def poly_to_dict(p):
    return {
        "alphabet": list(p.alphabet),
        "terms": [{"word": list(w), "coeff": str(c)}
                  for w, c in p.sorted_terms()],
    }


def poly_from_dict(data):
    alphabet = tuple(data["alphabet"])
    terms = [(tuple(t["word"]), t["coeff"]) for t in data["terms"]]
    return WordPoly(alphabet, terms)
