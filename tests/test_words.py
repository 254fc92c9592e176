import json
import random
from fractions import Fraction

import pytest

from barlog.errors import AlphabetError
from barlog.words import (FORM_BASE, FORM_PURE1, FORM_PURE2, TensorPoly,
                          WordPoly, antipode, concat, counit, deconcat,
                          poly_from_dict, poly_to_dict, shuffle)


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


def test_concat_grading():
    rng = random.Random(8)
    p = rand_poly(rng, max_deg=2)
    q = rand_poly(rng, max_deg=2)
    pq = concat(p, q)
    assert pq.max_degree() <= p.max_degree() + q.max_degree()


def test_deconcat_counit():
    w = WordPoly.monomial(FORM_BASE, ("z1", "z11", "z12"))
    d = deconcat(w)
    # s+1 cuts of a single word
    assert len(d.terms) == 4
    assert d.coefficient((), ("z1", "z11", "z12")) == 1
    assert d.coefficient(("z1",), ("z11", "z12")) == 1
    assert counit(WordPoly.unit(FORM_BASE)) == 1
    assert counit(w) == 0


def test_antipode_convolution_identity():
    # m(S x id)Delta = unit * counit on the concatenation Hopf structure's
    # dual shuffle side: verify S is the inverse of id under shuffle
    # convolution with deconcatenation.
    rng = random.Random(9)
    for _ in range(5):
        deg = rng.randrange(1, 4)
        word = tuple(rng.choice(FORM_BASE) for _ in range(deg))
        p = WordPoly.monomial(FORM_BASE, word)
        acc = WordPoly.zero(FORM_BASE)
        for (w1, w2), c in deconcat(p).terms.items():
            acc = acc + shuffle(
                antipode(WordPoly.monomial(FORM_BASE, w1)),
                WordPoly.monomial(FORM_BASE, w2)).scale(c)
        assert acc == WordPoly.zero(FORM_BASE)  # counit(word) = 0


def test_antipode_sign():
    w = WordPoly.monomial(FORM_BASE, ("z1", "z2", "z12"))
    assert antipode(w) == WordPoly.monomial(
        FORM_BASE, ("z12", "z2", "z1"), -1)


def test_alphabet_checked():
    with pytest.raises(AlphabetError):
        WordPoly.monomial(FORM_BASE, ("nope",))
    with pytest.raises(AlphabetError):
        TensorPoly.monomial(FORM_BASE, FORM_BASE, ("z1",), ("bad",))
    with pytest.raises(AlphabetError):
        TensorPoly.monomial(FORM_BASE, FORM_BASE, ("z1", "bad"), ("z2",))
    # A stray letter is rejected even where its coefficients cancel.
    with pytest.raises(AlphabetError):
        WordPoly(FORM_BASE, [(("z1",), 1), (("nope",), 1), (("nope",), -1)])
    # The other alphabet's letters are stray too.
    with pytest.raises(AlphabetError):
        TensorPoly.monomial(FORM_PURE1, FORM_PURE2, ("z1",), ("z1",))


def test_list_words():
    assert (WordPoly(FORM_BASE, [(["z1", "z22"], 2)])
            == WordPoly.monomial(FORM_BASE, ("z1", "z22"), 2))
    assert (TensorPoly(FORM_BASE, FORM_BASE, [((["z1"], ["z2"]), 1)])
            == TensorPoly.monomial(FORM_BASE, FORM_BASE, ("z1",), ("z2",)))
    with pytest.raises(AlphabetError):
        WordPoly(FORM_BASE, [(["z1", "nope"], 1)])
    with pytest.raises(AlphabetError):
        TensorPoly(FORM_BASE, FORM_BASE, [((["nope"], ["z2"]), 1)])
    with pytest.raises(AlphabetError):
        TensorPoly(FORM_BASE, FORM_BASE, [((["z1"], ["z2", "nope"]), 1)])


def test_json_round_trip():
    rng = random.Random(10)
    p = rand_poly(rng)
    assert poly_from_dict(json.loads(json.dumps(poly_to_dict(p)))) == p


def test_tensor_shuffle_mul():
    a = TensorPoly.monomial(FORM_BASE, FORM_BASE, ("z1",), ())
    b = TensorPoly.monomial(FORM_BASE, FORM_BASE, ("z2",), ())
    ab = a.shuffle_mul(b)
    assert ab.coefficient(("z1", "z2"), ()) == 1
    assert ab.coefficient(("z2", "z1"), ()) == 1
