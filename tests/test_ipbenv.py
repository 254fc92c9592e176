import itertools
import random
from fractions import Fraction

import pytest

from barlog import formspace, ipbenv, linalg, relgen
from barlog.duality import phi, tensor_split, theta
from barlog.errors import AlphabetError, ResourceLimitError
from barlog.formspace import is_integrable
from barlog.ipbenv import (DIRECTIONS, RELATORS, Direction, _reduce_word,
                           _z_word, alpha_eval, alpha_pair, enumerate_w0,
                           normal_form, omega_decomposition, omega_power,
                           w0_pairs)
from barlog.linalg import RowReducer, vec_add_into
from barlog.words import FORM_BASE, LIE_BASE, WordPoly
from kernel_oracle import alpha_image_reducer, omega_decomposition_by_solve
from rightmost_oracle import RULES, reduce_word_rightmost, sigma, split_pair


def lie(word, coeff=1):
    return WordPoly.monomial(LIE_BASE, word, coeff)


def as_poly(nf):
    return WordPoly(LIE_BASE, {w1 + w2: c for (w1, w2), c in nf.items()})


def test_rules_follow_from_relators():
    """Each rewriting rule, the 1x2 ones and their sigma images, read as
    (mover target) minus its replacement, must lie in the span of the
    quadratic relators; and sigma maps that span onto itself."""
    red = RowReducer()
    for i, rel in enumerate(RELATORS):
        red.add(dict(rel), i)
    assert red.rank == 6
    for rel in RELATORS:
        image = {sigma(w): Fraction(c) for w, c in rel.items()}
        assert red.contains(image), f"sigma image of {rel} not in the ideal"
    for rules in RULES.values():
        for (a, b), repl in rules.items():
            vec = {(a, b): Fraction(1)}
            for word, c in repl:
                vec[word] = vec.get(word, Fraction(0)) - Fraction(c)
            vec = {w: c for w, c in vec.items() if c}
            assert red.contains(vec), f"rule {(a, b)} not in the ideal"


def test_structural_certificate_of_the_kernel():
    """Why every readout coefficient is integrable and splits as its
    theta monomial, at every degree, proved once (Bergman's diamond
    lemma): the rules have no ambiguity and terminate, so the normal
    form is a linear map on the quotient; each wedge-slot element
    reduces to zero there, so no coefficient has a Chen defect; and
    sigma maps the relators onto themselves, so the 2x1 normal form is
    the sigma image of the 1x2 one."""
    movers = set(DIRECTIONS["1x2"].right_letters)
    # Each key is a mover before a non-mover, and each such pair is a
    # key: the irreducible words are exactly the product words W' W''.
    assert set(ipbenv._RULES) == {(a, b) for a in movers for b in LIE_BASE
                                  if b not in movers}
    # No overlap: no key ends with the letter that another key starts
    # with (and two keys of length 2 include each other only if equal).
    assert not {b for _, b in ipbenv._RULES} & {a for a, _ in ipbenv._RULES}

    def weight(word):
        """(movers, inversions): an inversion is a mover before a
        non-mover."""
        inversions = sum(x in movers and y not in movers
                         for i, x in enumerate(word) for y in word[i + 1:])
        return sum(x in movers for x in word), inversions

    # Every rule lowers the weight in every context of up to two letters
    # on each side, so every rewriting step does and the rewriting ends.
    contexts = [w for n in range(3)
                for w in itertools.product(LIE_BASE, repeat=n)]
    for key, repl in ipbenv._RULES.items():
        for u in contexts:
            for v in contexts:
                for word, _ in repl:
                    assert weight(u + word + v) < weight(u + key + v), key
    # The normal form fixes the product words.
    for n in range(4):
        for w in itertools.product(LIE_BASE, repeat=n):
            if weight(w)[1] == 0:
                cut = sum(x not in movers for x in w)
                assert _reduce_word(w) == {(w[:cut], w[cut:]): 1}
    # rho_j = sum_{a,b} coords(a, b)[j] Z(a) Z(b) is zero in the
    # quotient, for each of the six wedge slots, in both directions.
    coords = formspace.wedge_relation_space().coords
    for j in range(6):
        rho = lie((), 0)
        for (a, b), vec in coords.items():
            if vec.get(j):
                rho = rho + lie(_z_word((a, b)), vec[j])
        assert rho, j
        for direction in DIRECTIONS:
            assert normal_form(rho, direction) == {}, (j, direction)

    # sigma maps each relator to plus or minus a relator.
    def up_to_sign(rel):
        sign = 1 if rel[min(rel)] > 0 else -1
        return frozenset((w, sign * c) for w, c in rel.items())

    relators = {up_to_sign(rel) for rel in RELATORS}
    assert len(relators) == 6
    assert {up_to_sign({sigma(w): c for w, c in rel.items()})
            for rel in RELATORS} == relators


def test_normal_form_examples():
    nf = normal_form(lie(("Z2", "Z1")))
    assert nf == {(("Z1",), ("Z2",)): 1}
    nf = normal_form(lie(("Z2", "Z12")))
    assert nf == {
        (("Z12",), ("Z2",)): 1,
        (("Z1", "Z12"), ()): 1,
        (("Z12", "Z1"), ()): -1,
        (("Z11", "Z12"), ()): -1,
        (("Z12", "Z11"), ()): 1,
    }
    diff = (as_poly(normal_form(lie(("Z22", "Z11"))))
            - as_poly(normal_form(lie(("Z11", "Z22")))))
    assert diff == lie(("Z11", "Z12")) - lie(("Z12", "Z11"))


@pytest.mark.parametrize("d", ["1x2", "2x1"])
def test_normal_form_rejects_a_letter_outside_the_z_letters(d):
    with pytest.raises(AlphabetError, match="'z12'"):
        normal_form(WordPoly.monomial(FORM_BASE, ("z1", "z2", "z12")), d)
    # Only the stray letter is named.
    mixed = WordPoly(LIE_BASE + FORM_BASE,
                     {("Z2", "Z1"): 1, ("Z2", "z12"): 1})
    with pytest.raises(AlphabetError, match=r"""letters \["'z12'"\] """):
        normal_form(mixed, d)


def test_normal_form_idempotent():
    rng = random.Random(4)
    for _ in range(50):
        word = tuple(rng.choice(LIE_BASE) for _ in range(rng.randrange(1, 5)))
        nf = normal_form(lie(word))
        assert normal_form(as_poly(nf)) == nf


def test_strategies_agree_sample():
    rng = random.Random(5)
    for _ in range(100):
        word = tuple(rng.choice(LIE_BASE) for _ in range(rng.randrange(1, 6)))
        assert _reduce_word(word) == reduce_word_rightmost(word, "1x2")


def test_split_shape():
    nf = normal_form(lie(("Z2", "Z12", "Z22", "Z1")), "2x1")
    left = set(DIRECTIONS["2x1"].left_letters)
    for (w1, w2) in nf:
        assert all(x in left for x in w1)
        assert all(x not in left for x in w2)


def test_alpha_examples():
    assert alpha_eval(("Z1", "Z11")) == \
        lie(("Z1", "Z11")) - lie(("Z11", "Z1"))
    assert alpha_eval(("Z11",)) == lie(("Z11",))
    assert not alpha_eval(("Z1",))
    # alpha of a pair is alpha of the concatenation.
    assert alpha_pair(("Z11",), ("Z2", "Z22")) == \
        alpha_eval(("Z11", "Z2", "Z22"))


def test_omega_low_degrees():
    k0 = omega_power(0)
    assert k0 == {((), ((), ())): 1}
    k1 = omega_power(1)
    assert k1 == {
        (("z11",), (("Z11",), ())): 1,
        (("z22",), ((), ("Z22",))): 1,
        (("z12",), (("Z12",), ())): 1,
    }


def test_alpha_images_of_the_admissible_pairs_are_independent():
    """The expansion over the alpha images is unique."""
    for s in range(6):
        for d in ("1x2", "2x1"):
            assert alpha_image_reducer(s, d).rank == len(w0_pairs(s, d))


def test_decomposition_reads_the_rewriting_as_the_solve_does():
    """The readout of the normal forms of the Z words equals the solve
    against the alpha images, pair order included."""
    for s in range(6):
        for d in ("1x2", "2x1"):
            got = omega_decomposition(s, d)
            want = omega_decomposition_by_solve(s, d)
            assert list(got) == list(want)
            assert got == want


def test_decomposition_expands_the_kernel_over_the_alpha_images():
    """sum_p coeff_p (x) NF(alpha_pair(p)) is the kernel itself, each
    form word carrying the normal form of its alpha image."""
    for s in range(5):
        for d in ("1x2", "2x1"):
            acc = {}
            for p, coeff in omega_decomposition(s, d).items():
                image = normal_form(alpha_pair(*p), d)
                for fw, c in coeff.terms.items():
                    vec_add_into(acc, {(fw, pair): v
                                       for pair, v in image.items()}, c)
            assert acc == omega_power(s, d)


def test_decomposition_runs_no_row_reduction(monkeypatch):
    """The decomposition is read off the rewriting, with no solve."""
    def boom(*args):
        raise AssertionError("RowReducer used by the decomposition")

    monkeypatch.setattr(linalg.RowReducer, "add", boom)
    monkeypatch.setattr(linalg.RowReducer, "solve", boom)
    ipbenv._omega_decomposition.cache_clear()
    try:
        for d in ("1x2", "2x1"):
            assert len(omega_decomposition(4, d)) == len(w0_pairs(4, d))
    finally:
        ipbenv._omega_decomposition.cache_clear()


def test_each_coefficient_is_its_readout_row_in_print_order():
    """Each coefficient keeps its readout row as it stands, and the CLI
    writes it so: its terms are nonzero ints in sorted_terms() order,
    and it equals the WordPoly that sums and normalises the row."""
    for s in range(6):
        for d in ("1x2", "2x1"):
            for p, coeff in ipbenv._omega_decomposition(s, d).items():
                assert list(coeff.terms.items()) == coeff.sorted_terms(), p
                assert all(type(c) is int and c
                           for c in coeff.terms.values()), p
                assert WordPoly(FORM_BASE, coeff.terms) == coeff, p


def test_omega_pairs_are_admissible():
    for s in (1, 2, 3):
        for d in ("1x2", "2x1"):
            pairs = {p for p, c in omega_decomposition(s, d).items() if c}
            assert pairs <= set(w0_pairs(s, d))


def test_omega_form_parts_integrable():
    for s in (2, 3):
        for p, coeff in omega_decomposition(s).items():
            if coeff:
                assert is_integrable(coeff)
                # no word of the coefficient ends in a pure-log letter
                assert all(w[-1] not in ("z1", "z2") for w in coeff.terms)


def test_omega_coefficient_reference_display():
    coeff = omega_decomposition(2)[(("Z11", "Z12"), ())]
    assert coeff.terms == {
        ("z11", "z12"): 1,
        ("z22", "z11"): 1,
        ("z22", "z12"): -1,
        ("z2", "z12"): -1,
    }


def test_enumerate_w0():
    d = DIRECTIONS["1x2"]
    assert enumerate_w0(d.left_letters, 1) == [("Z11",), ("Z12",)]
    assert enumerate_w0(d.right_letters, 2) == [("Z2", "Z22"),
                                                ("Z22", "Z22")]
    assert len(w0_pairs(2)) == 10
    assert len(w0_pairs(3)) == 32
    assert len(w0_pairs(4)) == 100


def test_w0_pairs_rejects_a_negative_degree():
    assert w0_pairs(0) == [((), ())]
    # w0_pairs enumerates at any degree, so it takes no cap, but a
    # negative degree is an error, as for every degree-taking function.
    for d in ("1x2", "2x1"):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            w0_pairs(-1, d)


def test_sigma_maps_the_1x2_decomposition_to_the_2x1_one():
    """sigma exchanges z1 and z2 in the kernel, which is built once for
    both directions, so the 2x1 decomposition is the sigma image of the
    1x2 one, pair by pair and form word by form word.  It is also the
    readout of the direct 2x1 rewriting, which the library never
    runs."""
    table = {"Z1": "Z2", "Z2": "Z1", "Z11": "Z22", "Z22": "Z11",
             "Z12": "Z12", "z1": "z2", "z2": "z1", "z11": "z22",
             "z22": "z11", "z12": "z12"}

    def sigma(word):
        return tuple(table[x] for x in word)

    for s in range(6):
        mirrored = {(sigma(w1), sigma(w2)):
                    {sigma(fw): c for fw, c in p.terms.items()}
                    for (w1, w2), p in omega_decomposition(s, "1x2").items()}
        assert mirrored == {pair: p.terms for pair, p in
                            omega_decomposition(s, "2x1").items()}
    for s in range(5):
        rows = {p: {} for p in w0_pairs(s, "2x1")}
        for fw in itertools.product(FORM_BASE, repeat=s):
            for p, c in reduce_word_rightmost(_z_word(fw), "2x1").items():
                if p in rows:
                    rows[p][fw] = c
        got = omega_decomposition(s, "2x1")
        assert list(got) == list(rows)
        assert {p: coeff.terms for p, coeff in got.items()} == rows


def test_bracket_closure_low():
    """Commutators of right letters with left words stay inside the
    left factor (only trivial right parts appear)."""
    letters = DIRECTIONS["1x2"].left_letters
    for y in ("Z2", "Z22"):
        for n in range(1, 4):
            for w in itertools.product(letters, repeat=n):
                p = (as_poly(normal_form(lie((y,) + w)))
                     - as_poly(normal_form(lie(w + (y,)))))
                for (w1, w2) in normal_form(p):
                    assert w2 == ()


def test_degree_cap():
    with pytest.raises(ResourceLimitError):
        omega_power(4, cap=3)
    omega_decomposition(2)  # cached: the cap is checked before the cache
    with pytest.raises(ResourceLimitError):
        omega_decomposition(2, cap=1)
    with pytest.raises(ValueError, match="nonnegative"):
        omega_power(-1)


@pytest.mark.parametrize("entry", [
    lambda d: normal_form(lie(("Z2", "Z12")), d),
    lambda d: w0_pairs(2, d),
    lambda d: theta(("Z11", "Z12"), d),
    lambda d: tensor_split(WordPoly.monomial(FORM_BASE, ("z11", "z22")), d),
    lambda d: omega_decomposition(2, d),
    lambda d: phi(("Z11",), ("Z22",), d),
], ids=["normal_form", "w0_pairs", "theta", "tensor_split",
        "omega_decomposition", "phi"])
def test_a_direction_record_must_be_a_registered_one(entry):
    """A record equal to a registered Direction stands for it; a record
    with another name, or with the name of one and other theta maps, is
    an unknown direction."""
    one, two = DIRECTIONS["1x2"], DIRECTIONS["2x1"]
    copy = Direction("1x2", dict(one.theta_left), dict(one.theta_right))
    assert entry(copy) == entry("1x2")
    for record in (Direction("foo", one.theta_left, one.theta_right),
                   Direction("1x2", two.theta_left, two.theta_right)):
        with pytest.raises(ValueError, match="unknown direction"):
            entry(record)


@pytest.mark.parametrize("entry", [
    omega_power, omega_decomposition, relgen.generate_all,
    formspace.bar_basis, relgen.decompose_check])
def test_non_integer_degree_or_cap_is_a_type_error(entry):
    """check_degree takes the integer index of the degree and the cap,
    so a float or a string fails before any cache is touched."""
    caches = (ipbenv._reduce_word, ipbenv._omega_decomposition,
              relgen._relation_rows, formspace._bar_basis)
    before = [c.cache_info() for c in caches]
    for args, kwargs in (((2.5,), {}), (("3",), {}), ((3,), {"cap": 2.5}),
                         ((3,), {"cap": "6"})):
        with pytest.raises(TypeError):
            entry(*args, **kwargs)
    assert [c.cache_info() for c in caches] == before


def test_split_pair_rejects_words_out_of_normal_form():
    from barlog.errors import BarlogError

    assert split_pair(("Z11", "Z2", "Z22"), "1x2") == (
        ("Z11",), ("Z2", "Z22"))
    assert split_pair(("Z22", "Z1", "Z11"), "2x1") == (
        ("Z22",), ("Z1", "Z11"))
    with pytest.raises(BarlogError, match="normal form"):
        split_pair(("Z2", "Z1"), "1x2")
    with pytest.raises(BarlogError, match="normal form"):
        split_pair(("Z1", "Z2"), "2x1")
