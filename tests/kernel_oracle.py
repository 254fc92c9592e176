"""Reference expansion of the kernel over the alpha images, by a solve.

The library reads the expansion of the degree-s kernel over the alpha
images of the admissible pairs straight off the word rewriting
(ipbenv._omega_decomposition).  The route it replaced row-reduces the
normal forms of the alpha images and solves the normal form of each
form word's alpha image against them; the tests compare the two.
"""

import itertools

from barlog.errors import BarlogError
from barlog.ipbenv import alpha_eval, alpha_pair, normal_form, w0_pairs
from barlog.linalg import RowReducer
from barlog.words import FORM_BASE, LIE_BASE, WordPoly

TO_Z = dict(zip(FORM_BASE, LIE_BASE))


def alpha_image_reducer(s, direction):
    """The normal forms of the alpha images of the admissible pairs,
    row-reduced, each tagged with its pair (BarlogError if they are
    dependent)."""
    red = RowReducer()
    for p in w0_pairs(s, direction):
        if red.add(normal_form(alpha_pair(*p), direction), p) is not None:
            raise BarlogError("alpha images of admissible pairs are dependent")
    return red


def omega_decomposition_by_solve(s, direction):
    """{(W', W''): form-word polynomial}: each form word's normalized
    alpha image solved against the alpha images of the pairs
    (ValueError if it leaves their span)."""
    red = alpha_image_reducer(s, direction)
    coeffs = {p: {} for p in w0_pairs(s, direction)}
    for fw in itertools.product(FORM_BASE, repeat=s):
        image = alpha_eval(tuple(TO_Z[x] for x in fw))
        rep = red.solve(normal_form(image, direction))
        if rep is None:
            raise ValueError(
                "kernel does not lie in the span of the alpha images")
        for p, c in rep.items():
            if c:
                coeffs[p][fw] = c
    return {p: WordPoly(FORM_BASE, terms) for p, terms in coeffs.items()}
