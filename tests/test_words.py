import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlog.errors import AlphabetError
from barlog.ipbenv import DIRECTIONS
from barlog.words import FORM_BASE, LIE_BASE, WordPoly, shuffle

# The one-forms in dz1 only and in dz2 only: the left factor alphabets
# of the two splittings.
MAIN1 = DIRECTIONS["1x2"].left_alphabet
MAIN2 = DIRECTIONS["2x1"].left_alphabet


def rand_poly(rng, alphabet=FORM_BASE, max_deg=3, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        deg = rng.randrange(max_deg + 1)
        word = tuple(rng.choice(alphabet) for _ in range(deg))
        terms[word] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return WordPoly(alphabet, terms)


def test_unit_law():
    one = WordPoly.unit(FORM_BASE)
    w = WordPoly.monomial(FORM_BASE, ("z1", "z22"))
    assert shuffle(one, w) == w
    assert shuffle(w, one) == w
    assert shuffle(one, one) == one


def test_shuffle_commutative_associative():
    rng = random.Random(7)
    for _ in range(10):
        p, q, r = (rand_poly(rng, max_deg=2) for _ in range(3))
        assert shuffle(p, q) == shuffle(q, p)
        assert shuffle(shuffle(p, q), r) == shuffle(p, shuffle(q, r))


def test_shuffle_example():
    a = WordPoly.monomial(FORM_BASE, ("z1",))
    b = WordPoly.monomial(FORM_BASE, ("z2",))
    assert shuffle(a, b) == WordPoly(FORM_BASE, {("z1", "z2"): 1,
                                                 ("z2", "z1"): 1})


def test_alphabet_checked():
    with pytest.raises(AlphabetError):
        WordPoly.monomial(FORM_BASE, ("nope",))
    # A stray letter is rejected even where its coefficients cancel.
    with pytest.raises(AlphabetError):
        WordPoly(FORM_BASE, [(("z1",), 1), (("nope",), 1), (("nope",), -1)])
    # The other alphabet's letters are stray too, also in _from_terms.
    with pytest.raises(AlphabetError, match="'z2'"):
        WordPoly.monomial(MAIN1, ("z1", "z2"))
    with pytest.raises(AlphabetError, match="'z2'"):
        WordPoly._from_terms(MAIN1, {("z2",): 1})


def test_list_words():
    assert (WordPoly(FORM_BASE, [(["z1", "z22"], 2)])
            == WordPoly.monomial(FORM_BASE, ("z1", "z22"), 2))
    with pytest.raises(AlphabetError):
        WordPoly(FORM_BASE, [(["z1", "nope"], 1)])


# The alphabets of the property test.  Spaces 2k and 2k+1 have
# different alphabets.
_SPACES = [FORM_BASE, LIE_BASE, MAIN1, MAIN2]
_COEFFS = (st.integers(-3, 3)
           | st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _polys(space):
    alphabet = _SPACES[space]
    words = st.lists(st.sampled_from(alphabet), max_size=3).map(tuple)
    return st.dictionaries(words, _COEFFS, max_size=5).map(
        lambda terms: WordPoly(alphabet, terms))


def _word_key(alphabet, word):
    return (len(word), [alphabet.index(x) for x in word])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(_SPACES) - 1).flatmap(
    lambda i: st.tuples(st.just(i), _polys(i), _polys(i), _COEFFS,
                        _polys(i ^ 1))))
def test_polynomial_laws(case):
    space, p, q, c, other_alphabet = case
    alphabet = _SPACES[space]
    assert p + q == q + p
    assert not p - p and not -p + p
    assert (p + q).scale(c) == p.scale(c) + q.scale(c)
    assert p - q == p + q.scale(-1)
    parts = p.degree_parts()
    assert sum(parts.values(), WordPoly.zero(alphabet)) == p
    for s, part in parts.items():
        assert part and part.degree_parts().keys() == {s}
    keys = [_word_key(alphabet, w) for w, _ in p.sorted_terms()]
    assert keys == sorted(keys) and dict(p.sorted_terms()) == p.terms
    # A copy built in another term order, and one built through a
    # cancelling sum, are equal and hash equal.
    for copy in (WordPoly(alphabet, list(p.terms.items())[::-1]), p + q - q):
        assert copy == p and hash(copy) == hash(p)
    # Neither a polynomial over another alphabet nor the terms as a
    # plain dict equal p or add to it.
    assert p != other_alphabet and p != p.terms
    for stranger in (other_alphabet, p.terms):
        with pytest.raises(AlphabetError):
            p + stranger
    with pytest.raises(AlphabetError):
        p - other_alphabet


def test_reprs():
    assert repr(WordPoly.zero(FORM_BASE)) == "WordPoly(0)"
    assert (repr(WordPoly(FORM_BASE, {("z2", "z1"): -1, (): Fraction(1, 2)}))
            == "WordPoly(1/2*(1) + -1*(z2,z1))")
