import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlog.duality import (certified_rows, iota, iota_inv, phi,
                            tensor_split, theta)
from barlog.errors import (AlphabetError, BarlogError, DomainError,
                           ResourceLimitError)
from barlog.formspace import bar_basis
from barlog.ipbenv import (DIRECTIONS, normal_form, omega_decomposition,
                           w0_pairs)
from barlog.linalg import vec_add_into
from barlog.words import FORM_BASE, LIE_BASE, WordPoly
from chen_oracle import splitting_preimage, splitting_solver


def test_theta():
    assert theta(("Z11", "Z12"), "1x2", "left") == ("z11", "z12_1")
    assert theta(("Z22",), "1x2", "right") == ("z22",)
    assert theta(("Z12", "Z2"), "2x1", "left") == ("z12_2", "z2")
    with pytest.raises(AlphabetError):
        theta(("Z2",), "1x2", "left")


def test_iota_requires_integrability():
    w = WordPoly.monomial(FORM_BASE, ("z1", "z2"))
    with pytest.raises(DomainError):
        iota(w, "1x2")


@pytest.mark.parametrize("direction", ["1x2", "2x1"])
def test_tensor_split_is_iota_without_the_check(direction):
    for s in range(4):
        for b in bar_basis(s):
            assert tensor_split(b, direction) == iota(b, direction)
    w = WordPoly.monomial(FORM_BASE, ("z12", "z1"))
    assert tensor_split(w, direction)
    with pytest.raises(DomainError):
        iota(w, direction)


def test_iota_simple():
    p = WordPoly.monomial(FORM_BASE, ("z22", "z2"))
    t = iota(p, "1x2")
    assert type(t) is dict and t == {((), ("z22", "z2")): Fraction(1)}
    # single letters split as empty x letter plus letter x empty where
    # both projections survive
    q = WordPoly.monomial(FORM_BASE, ("z12",))
    t = iota(q, "1x2")
    assert t == {(("z12_1",), ()): Fraction(1)}


def test_unknown_direction_or_side_is_a_value_error():
    lie = WordPoly.monomial(LIE_BASE, ("Z2", "Z1"))
    form = WordPoly.monomial(FORM_BASE, ("z1", "z2"))
    for call in (lambda d: normal_form(lie, d),
                 lambda d: phi(("Z11",), ("Z22",), d),
                 lambda d: tensor_split(form, d),
                 lambda d: omega_decomposition(2, d),
                 lambda d: theta(("Z2",), d, "left")):
        for bad in ("3x1", "", None):
            with pytest.raises(ValueError, match="1x2 or 2x1"):
                call(bad)
    for side in ("middle", "Left", None):
        with pytest.raises(ValueError, match="side"):
            theta(("Z2",), "1x2", side)


def test_iota_full_rank():
    for direction in ("1x2", "2x1"):
        for s in (1, 2, 3):
            rank = splitting_solver(direction, s, bar_basis).rank
            assert rank == len(bar_basis(s))


def random_tensor(rng, direction, degrees, size):
    """A sum of size random tensor monomials, each of a degree drawn
    from degrees, with small nonzero integer coefficients, as
    {(W', W''): coeff} without zeros."""
    d = DIRECTIONS[direction]
    acc = {}
    for _ in range(size):
        s = rng.choice(degrees)
        k = rng.randrange(s + 1)
        pair = (tuple(rng.choice(d.left_alphabet) for _ in range(k)),
                tuple(rng.choice(d.right_alphabet) for _ in range(s - k)))
        vec_add_into(acc, {pair: rng.choice((-2, -1, 1, 2))})
    return acc


def test_iota_inv_round_trip():
    rng = random.Random(6)
    for direction in ("1x2", "2x1"):
        for s in (1, 2, 3):
            basis = bar_basis(s)
            p = WordPoly.zero(FORM_BASE)
            for b in basis:
                p = p + b.scale(rng.randrange(-2, 3))
            t = iota(p, direction)
            assert iota_inv(t, direction) == p
            assert iota(iota_inv(t, direction), direction) == t
        t = random_tensor(rng, direction, (5,), 12)
        assert iota(iota_inv(t, direction), direction) == t


@pytest.mark.parametrize("direction", ["1x2", "2x1"])
def test_iota_inv_matches_the_splitting_oracle(direction):
    """iota_inv, a combination of the certified rows, equals the
    preimage solved against the splittings of the whole Chen-condition
    bar basis."""
    rng = random.Random(7)
    for _ in range(6):
        t = random_tensor(rng, direction, range(5), 8)
        assert iota_inv(t, direction) == splitting_preimage(t, direction)


def test_iota_inv_checks_the_cap():
    t = iota(bar_basis(2)[0], "1x2")
    iota_inv(t, "1x2")
    with pytest.raises(ResourceLimitError):
        iota_inv(t, "1x2", cap=1)
    # A pure-log tensor reads a row of a non-admissible pair.
    logs = {(("z1",) * 3, ()): 1}
    with pytest.raises(ResourceLimitError):
        iota_inv(logs, "1x2", cap=2)


def test_iota_inv_rejects_a_tensor_of_the_other_direction():
    for mine, other in (("2x1", "1x2"), ("1x2", "2x1")):
        d = DIRECTIONS[mine]
        left, right = d.left_alphabet[-1], d.right_alphabet[-1]
        for t, letter in (({((left,), ()): 1}, left),
                          ({((), (right,)): 1}, right)):
            with pytest.raises(AlphabetError, match=repr(letter)):
                iota_inv(t, other)
        # A letter is checked even where its coefficient is zero.
        with pytest.raises(AlphabetError):
            iota_inv({(("z12_1", "z12_2"), ()): 0}, mine)
        # Words with no letters belong to either direction.
        assert iota_inv({((), ()): 3}, other) == WordPoly.monomial(
            FORM_BASE, (), 3)


def _theta_monomial(pair, direction):
    return theta(pair[0], direction, "left"), theta(pair[1], direction,
                                                    "right")


@pytest.mark.parametrize("direction", ["1x2", "2x1"])
def test_the_column_of_each_product_word_is_a_unit(direction):
    """A product word W' W'' is its own normal form, so the column of its
    form word holds a single 1, in the row of (W', W''): the rows are
    independent, one for each product pair, and span bar_basis."""
    to_form = dict(zip(LIE_BASE, FORM_BASE))
    for s in range(1, 6):
        rows = certified_rows(s, direction)
        assert len(rows) == 3 ** (s + 1) - 2 ** (s + 1) == len(bar_basis(s))
        columns = {}
        for pair, row in rows.items():
            for w, c in row.terms.items():
                columns.setdefault(w, {})[pair] = c
        for w1, w2 in rows:
            column = columns[tuple(to_form[x] for x in w1 + w2)]
            assert column == {(w1, w2): 1}, (w1, w2)


@pytest.mark.parametrize("direction", ["1x2", "2x1"])
def test_every_row_matches_the_splitting_oracle(direction):
    """Every row K_p, of an admissible pair or not, is the preimage of
    its theta monomial solved against the Chen-condition bar basis."""
    for s in range(4):
        for pair, row in certified_rows(s, direction).items():
            t = {_theta_monomial(pair, direction): 1}
            assert row == splitting_preimage(t, direction), pair


@pytest.mark.parametrize("direction", ["1x2", "2x1"])
def test_every_non_admissible_row_mutant_is_rejected(monkeypatch,
                                                     direction):
    # The rows of the non-admissible pairs are certified by one weighted
    # combination too: one changed coefficient in any of them is caught,
    # whichever row iota_inv asks for, and the error names its pair.
    from barlog import duality, ipbenv

    good = ipbenv._non_admissible_rows(3, direction)
    pairs = list(good)
    assert len(pairs) == 33 and not set(pairs) & set(w0_pairs(3, direction))
    rows = {}
    monkeypatch.setattr(duality, "_non_admissible_rows",
                        lambda s, direction: rows)
    duality._certified_rest.cache_clear()
    try:
        for i, pair in enumerate(pairs):
            word = next(iter(good[pair].terms))
            rows.clear()
            rows.update(good)
            rows[pair] = good[pair] + WordPoly.monomial(FORM_BASE, word)
            message = re.escape(f"kernel coefficient of {pair} in "
                                f"{direction} does not split")
            for asked in (pair, pairs[i - 1]):
                with pytest.raises(BarlogError, match=message):
                    iota_inv({_theta_monomial(asked, direction): 1},
                             direction)
        rows.clear()
        rows.update(good)
        t = {_theta_monomial(pairs[0], direction): 1}
        assert iota_inv(t, direction) == good[pairs[0]]
    finally:
        duality._certified_rest.cache_clear()


def test_iota_is_onto_tensor_space():
    """The splitting is an isomorphism onto the full tensor space: the
    degree-s dimensions 3^a 2^b sum to exactly dim B_s, and every
    tensor monomial has an integrable preimage."""
    for s in (1, 2, 3):
        target = sum(3 ** a * 2 ** (s - a) for a in range(s + 1))
        assert target == len(bar_basis(s))
    for w1, w2 in ((("z1",), ("z2",)), (("z12_1",), ("z22",)),
                   ((), ("z2", "z22"))):
        t = {(w1, w2): 1}
        p = iota_inv(t, "1x2")
        assert iota(p, "1x2") == t


def test_phi_two_letter_reference_display():
    p = phi(("Z11", "Z12"), ())
    assert p.terms == {
        ("z11", "z12"): 1,
        ("z22", "z11"): 1,
        ("z22", "z12"): -1,
        ("z2", "z12"): -1,
    }
    p = phi(("Z12", "Z11"), ())
    assert p.terms == {
        ("z12", "z11"): 1,
        ("z22", "z11"): -1,
        ("z22", "z12"): 1,
        ("z2", "z12"): 1,
    }


def test_phi_three_letter_reference_display():
    p = phi(("Z12", "Z11", "Z12"), ())
    assert p.terms == {
        ("z12", "z11", "z12"): 1,
        ("z12", "z22", "z11"): 1,
        ("z12", "z22", "z12"): -1,
        ("z12", "z2", "z12"): -1,
        ("z22", "z11", "z12"): -1,
        ("z22", "z12", "z11"): 1,
        ("z22", "z2", "z12"): 2,
        ("z22", "z22", "z11"): -2,
        ("z22", "z22", "z12"): 2,
    }


def test_phi_single_letters():
    assert phi((), ("Z22",)).terms == {("z22",): 1}
    assert phi(("Z12",), ()).terms == {("z12",): 1}
    assert phi((), ()).terms == {(): 1}


def test_phi_rejects_trailing_ad_letters():
    with pytest.raises(ValueError):
        phi(("Z11", "Z1"), ())
    with pytest.raises(ValueError):
        phi((), ("Z2",))


def test_phi_split_image():
    split = iota(phi(("Z11", "Z12"), ()), "2x1")
    assert split == {
        (("z22",), ("z11",)): Fraction(1),
        (("z2", "z12_2"), ()): Fraction(-1),
        (("z22", "z12_2"), ()): Fraction(-1),
    }


@pytest.mark.parametrize("direction", ["1x2", "2x1"])
def test_phi_matches_bar_basis_oracle(direction):
    """phi, read from the kernel decomposition, equals the preimage of
    the theta monomial solved against the Chen-condition bar basis,
    which does not come from the kernel."""
    for s in range(5):
        assert splitting_solver(direction, s).rank == len(bar_basis(s))
        for w1, w2 in w0_pairs(s, direction):
            t = {(theta(w1, direction, "left"),
                  theta(w2, direction, "right")): 1}
            preimage = splitting_preimage(t, direction)
            assert preimage is not None, (w1, w2)
            assert phi(w1, w2, direction) == preimage, (w1, w2)


def test_phi_certifies_the_kernel_coefficient(monkeypatch):
    from barlog import duality, ipbenv

    decomposition = dict(ipbenv.omega_decomposition(2, "1x2"))
    pair = (("Z11", "Z12"), ())
    good = decomposition[pair]
    monkeypatch.setattr(duality, "omega_decomposition",
                        lambda s, direction, cap=None: decomposition)
    duality._certified_kernel.cache_clear()
    try:
        for bad in (good.scale(2),  # integrable, wrong splitting
                    WordPoly.zero(FORM_BASE),
                    # z2 z1 splits to zero in 1x2: only Chen's
                    # condition rejects it.
                    good + WordPoly.monomial(FORM_BASE, ("z2", "z1"))):
            decomposition[pair] = bad
            with pytest.raises(BarlogError, match="does not split"):
                phi(*pair)
        decomposition[pair] = good
        assert phi(*pair) == good
        # The keys are checked too: a kernel without one of its pairs.
        del decomposition[pair]
        duality._certified_kernel.cache_clear()
        with pytest.raises(BarlogError, match="misses an admissible one"):
            phi(("Z11",), ("Z22",))
    finally:
        duality._certified_kernel.cache_clear()


@pytest.mark.parametrize("direction", ["1x2", "2x1"])
def test_every_single_coefficient_mutant_is_rejected(monkeypatch, direction):
    # The kernel is certified by one combination of all its coefficients;
    # each corrupted coefficient is still caught, by phi of that pair or
    # of any other pair of the kernel, and the error names it.
    from barlog import duality, ipbenv

    d = DIRECTIONS[direction]
    good = dict(ipbenv.omega_decomposition(3, direction))
    pairs = w0_pairs(3, direction)
    assert list(good) == pairs and len(pairs) == 32
    # z2 z1 z1 fails Chen's condition at the first cut and splits to zero
    # in 1x2, and so does its sigma image in 2x1: only Chen's condition
    # rejects the third mutant.
    word = ("z2", "z1", "z1") if direction == "1x2" else ("z1", "z2", "z2")
    stray = WordPoly.monomial(FORM_BASE, word)
    assert not tensor_split(stray, d)
    decomposition = {}
    monkeypatch.setattr(duality, "omega_decomposition",
                        lambda s, direction, cap=None: decomposition)
    duality._certified_kernel.cache_clear()
    try:
        for i, pair in enumerate(pairs):
            other = pairs[i - 1]
            for bad in (good[pair].scale(2), WordPoly.zero(FORM_BASE),
                        good[pair] + stray):
                decomposition.clear()
                decomposition.update(good)
                decomposition[pair] = bad
                message = (re.escape(f"kernel coefficient of {pair} in "
                                     f"{direction} does not split"))
                for asked in (pair, other):
                    with pytest.raises(BarlogError, match=message):
                        phi(*asked, direction)
        decomposition.clear()
        decomposition.update(good)
        assert phi(*pairs[0], direction) == good[pairs[0]]
    finally:
        duality._certified_kernel.cache_clear()


def test_kernel_weights_are_fixed_and_nonzero():
    from barlog import duality

    weights = duality._weights(5704)
    assert weights == duality._weights(5704)
    assert weights[:3] == duality._weights(3)
    assert all(0 < r < 2 ** 64 and r % 2 for r in weights)
    assert len(set(weights)) == len(weights)


def test_phi_checks_letters_before_the_kernel(monkeypatch):
    from barlog import duality

    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel built for invalid input")

    monkeypatch.setattr(duality, "omega_decomposition", no_kernel)
    with pytest.raises(ValueError, match="ends in Z1/Z2"):
        phi(("Z11", "Z1"), ())
    with pytest.raises(AlphabetError):
        phi(("Z22",), ())
    with pytest.raises(AlphabetError):
        phi((), ("Z12",), "2x1")


# -- tensor_split against the all-cuts loop it replaced ---------------------

def reference_project(word, table):
    """Apply a letter projection to a word; None if any letter dies."""
    out = []
    for x in word:
        y = table[x]
        if y is None:
            return None
        out.append(y)
    return tuple(out)


def reference_tensor_split(p, direction="1x2"):
    """Every cut of every word, each side projected anew."""
    d = DIRECTIONS[direction]
    acc = {}
    for w, c in p.terms.items():
        cuts = {}
        for l in range(len(w) + 1):
            left = reference_project(w[:l], d.left_map)
            if left is None:
                continue
            right = reference_project(w[l:], d.right_map)
            if right is not None:
                cuts[(left, right)] = 1
        vec_add_into(acc, cuts, c)
    return acc


form_words = st.lists(st.sampled_from(FORM_BASE), max_size=7).map(tuple)


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(st.tuples(form_words, st.integers(-3, 3)),
                      max_size=8),
       cancel=st.lists(st.booleans(), max_size=8),
       direction=st.sampled_from(("1x2", "2x1")))
def test_tensor_split_matches_the_all_cuts_loop(terms, cancel, direction):
    # Words drawn twice with opposite signs cancel in the polynomial.
    terms += [(w, -c) for (w, c), drop in zip(terms, cancel) if drop]
    p = WordPoly(FORM_BASE, terms)
    got = tensor_split(p, direction)
    expected = reference_tensor_split(p, direction)
    assert list(got.items()) == list(expected.items())
