"""Exact-arithmetic toolkit for the reduced bar algebra of the
two-variable formal KZ system on the five-point moduli space, its
two tensor decompositions, and the resulting generalized harmonic
product relations for hyperlogarithms, with truncated-series and
quadrature oracles for numerical verification.

Submodules load on first use (PEP 562): `import barlog` loads only the
exception types, and `barlog.phi` or `from barlog import phi` loads the
module that defines it, with whatever that module imports.
"""

from importlib import import_module

from . import errors  # noqa: F401  (the exception types callers catch)

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "errors": ("AlphabetError", "BarlogError", "ContourError",
               "DivergentTermError", "DomainError", "ResourceLimitError"),
    "words": ("FORM_BASE", "LIE_BASE", "WordPoly", "shuffle"),
    "formspace": ("bar0_basis", "bar_basis", "chen_defect",
                  "is_integrable", "wedge_relation_space"),
    "ipbenv": ("alpha_eval", "alpha_pair", "enumerate_w0", "normal_form",
               "omega_decomposition", "omega_power", "w0_pairs"),
    "duality": ("iota", "iota_inv", "phi", "tensor_split", "theta"),
    "hyperlog": ("EvalResult", "HyperlogTerm", "eval_quadrature",
                 "eval_series", "partial_derivative", "word_to_term"),
    "harmonic": ("index_harmonic", "closed_harmonic_expand",
                 "mpl_harmonic_expand", "mzv_truncated", "recursion_expand"),
    "relgen": ("Relation", "decompose_check", "generate_all",
               "generate_relation", "verify_relation"),
}

_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """A public name from its defining module, or a submodule, loaded
    on first access and then bound here."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        try:
            value = import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
