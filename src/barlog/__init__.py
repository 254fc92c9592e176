"""Exact-arithmetic toolkit for the reduced bar algebra of the
two-variable formal KZ system on the five-point moduli space, its
two tensor decompositions, and the resulting generalized harmonic
product relations for hyperlogarithms, with truncated-series and
quadrature oracles for numerical verification.
"""

from .errors import (AlphabetError, BarlogError, ContourError,
                     DivergentTermError, DomainError, ResourceLimitError)
from .words import (FORM_BASE, FORM_MAIN1, FORM_MAIN2, FORM_PURE1,
                    FORM_PURE2, LIE_BASE, TensorPoly, WordPoly, antipode,
                    concat, counit, deconcat, shuffle)
from .formspace import (bar0_basis, bar_basis, chen_defect, is_integrable,
                        wedge_relation_space)
from .ipbenv import (alpha_eval, alpha_pair, enumerate_w0, normal_form,
                     omega_decomposition, omega_power, w0_pairs)
from .duality import iota, iota_inv, phi, tensor_split, theta
from .hyperlog import (EvalResult, HyperlogTerm, MplIndex, eval_mpl,
                       eval_quadrature, eval_series, partial_derivative,
                       term_to_word, word_to_term)
from .harmonic import (TaggedMplSum, equivalence_check, index_harmonic,
                       closed_harmonic_expand, mpl_harmonic_expand, mzv_truncated,
                       recursion_expand)
from .relgen import (Relation, decompose_check, generate_all,
                     generate_relation, verify_relation)

__version__ = "0.1.0"

__all__ = [
    "AlphabetError", "BarlogError", "ContourError", "DivergentTermError",
    "DomainError", "ResourceLimitError",
    "FORM_BASE", "FORM_MAIN1", "FORM_MAIN2", "FORM_PURE1", "FORM_PURE2",
    "LIE_BASE", "TensorPoly", "WordPoly", "antipode", "concat", "counit",
    "deconcat", "shuffle",
    "bar0_basis", "bar_basis", "chen_defect", "is_integrable",
    "wedge_relation_space",
    "alpha_eval", "alpha_pair", "enumerate_w0", "normal_form",
    "omega_decomposition", "omega_power", "w0_pairs",
    "iota", "iota_inv", "phi", "tensor_split", "theta",
    "EvalResult", "HyperlogTerm", "MplIndex", "eval_mpl",
    "eval_quadrature", "eval_series", "partial_derivative",
    "term_to_word", "word_to_term",
    "TaggedMplSum", "equivalence_check", "index_harmonic",
    "closed_harmonic_expand", "mpl_harmonic_expand", "mzv_truncated",
    "recursion_expand",
    "Relation", "decompose_check", "generate_all", "generate_relation",
    "verify_relation",
]
