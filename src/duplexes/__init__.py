"""Sets carrying two associative operations, realized on permutations,
planar trees, binary trees and cube vertices, with unique-factorization
algorithms, the canonical maps between the carriers, and exact series
verification of all the counting identities that relate them.

The names below are imported from their modules on first use (PEP 562),
so ``import duplexes`` loads no submodule."""

import importlib

# each exported name, by the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("BINARY_OPS", "SINGLE_NODE", "catalan", "enumerate_binary", "eval_duplexes1", "over", "split", "under"),
        "binary_trees",
    ),
    **dict.fromkeys(
        ("CUBE_OPS", "SINGLETON", "CubeVertex", "enumerate_cubes"),
        "cubes",
    ),
    **dict.fromkeys(
        ("DECORATED_OPS", "DecoratedTree", "DuplexExpr", "Tag", "dot", "enumerate_decorated",
         "eval_hom", "format_expr", "leaf_expr", "parse_expr", "star"),
        "decorated_trees",
    ),
    **dict.fromkeys(
        ("ArityTooSmall", "BoundExceeded", "ComposeNonzeroConstant", "DuplexError",
         "ExprSyntaxError", "InvalidDegree", "MixedChainError", "ParseError", "StubNotSplittable",
         "UnboundGenerator", "UnknownGenerator"),
        "errors",
    ),
    **dict.fromkeys(("LawReport", "Structure", "Variety", "check_laws"), "laws"),
    **dict.fromkeys(("alpha", "leaf_sign_vector", "phi", "rho"), "morphisms"),
    **dict.fromkeys(
        ("PERM_OPS", "IndecKind", "Permutation", "count_indecomposable", "duplex_factorize",
         "enumerate_indecomposable", "enumerate_permutations", "format_permutation", "is_indecomposable",
         "multiply_out", "natural", "natural_factorize", "parse_permutation", "sharp", "sharp_factorize", "xi"),
        "permutations",
    ),
    **dict.fromkeys(
        ("DuplexOps", "LEAF", "PlanarTree", "enumerate_trees", "leaf_count", "super_catalan"),
        "planar_trees",
    ),
    **dict.fromkeys(("Series", "from_counts", "verify_identity"), "series"),
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
