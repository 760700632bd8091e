"""Sets carrying two associative operations, realized on permutations,
planar trees, binary trees and cube vertices, with unique-factorization
algorithms, the canonical maps between the carriers, and exact series
verification of all the counting identities that relate them."""

from .binary_trees import (
    BINARY_OPS,
    SINGLE_NODE,
    STUB,
    catalan,
    enumerate_binary,
    eval_duplexes1,
    over,
    split,
    under,
)
from .cubes import (
    CUBE_OPS,
    SINGLETON,
    CubeVertex,
    cube_product,
    cube_word,
    enumerate_cubes,
    word_to_cube,
)
from .decorated_trees import (
    DECORATED_OPS,
    DecoratedTree,
    DuplexExpr,
    DuplexOps,
    Tag,
    dot,
    enumerate_decorated,
    eval_hom,
    format_expr,
    leaf_expr,
    parse_expr,
    star,
)
from .errors import (
    AlphabetMismatch,
    ArityTooSmall,
    BoundExceeded,
    ComposeNonzeroConstant,
    ContractLeaf,
    DegreeMismatch,
    DegreeTooSmall,
    DuplexError,
    ExprSyntaxError,
    InvalidDegree,
    MixedChainError,
    ParseError,
    StubNotSplittable,
    UnboundGenerator,
    UnknownGenerator,
)
from .laws import LawReport, Structure, Variety, check_laws, generated_elements
from .morphisms import alpha, leaf_sign_vector, phi, rho
from .permutations import (
    PERM_OPS,
    IndecKind,
    Permutation,
    compose,
    count_indecomposable,
    delta,
    duplex_factorize,
    enumerate_indecomposable,
    enumerate_permutations,
    format_permutation,
    is_indecomposable,
    multiply_out,
    natural,
    natural_factorize,
    omega,
    parse_permutation,
    sharp,
    sharp_factorize,
    xi,
)
from .planar_trees import (
    LEAF,
    PlanarTree,
    enumerate_trees,
    graft,
    graft_contract,
    leaf_count,
    super_catalan,
    vertex_count,
)
from .series import Series, from_counts, sum_of_powers, verify_identity

__all__ = [name for name in dir() if not name.startswith("_")]
