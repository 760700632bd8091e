"""The contract every value class and record keeps: its repr text, equality
within its own class, a hash equal to the hash of its field tuple, no
assignment, and round trips through pickle and copy."""
import copy
import importlib
import pickle
import pkgutil

import pytest

import duplexes
from duplexes import laws
from duplexes.binary_trees import over
from duplexes.cubes import CUBE_OPS, CubeVertex, cube_dot
from duplexes.decorated_trees import GENERATOR_TREE, DecoratedTree, DuplexOps, Tag, leaf_expr, parse_expr, tree_dot
from duplexes.laws import Structure, Variety, check_laws
from duplexes.permutations import Permutation, sharp
from duplexes.planar_trees import LEAF, PlanarTree, _Value
from duplexes.series import CheckResult, Series, verify_identity

CHERRY = PlanarTree((LEAF, LEAF))

# (value, its repr, its fields in declaration order)
VALUES = [
    (CHERRY, "PlanarTree(text='(||)')", ("(||)",)),
    (LEAF, "PlanarTree(text='|')", ("|",)),
    (
        DecoratedTree(CHERRY, Tag.DOT),
        "DecoratedTree(shape=PlanarTree(text='(||)'), tag=<Tag.DOT: '.'>)",
        (CHERRY, Tag.DOT),
    ),
    (
        parse_expr("e.(e*e)", "e"),
        "DuplexExpr(tree=DecoratedTree(shape=PlanarTree(text='(|(||))'), tag=<Tag.DOT: '.'>), "
        "labels=('e', 'e', 'e'))",
        (DecoratedTree(PlanarTree((LEAF, CHERRY)), Tag.DOT), ("e", "e", "e")),
    ),
    (
        leaf_expr("e"),
        "DuplexExpr(tree=DecoratedTree(shape=PlanarTree(text='|'), tag=None), labels=('e',))",
        (DecoratedTree(LEAF, None), ("e",)),
    ),
    (sharp(Permutation((2, 1)), Permutation((1,))), "Permutation(images=(2, 1, 3))", ((2, 1, 3),)),
    (CubeVertex((1, -1)), "CubeVertex(text='<+1,-1>')", ("<+1,-1>",)),
    (CubeVertex(), "CubeVertex(text='e')", ("e",)),
    (Series((0, 1, 2)), "Series(coefficients=(0, 1, 2))", ((0, 1, 2),)),
]

# one result of a product per kind of field: the products build their values
# without the constructors, and the values keep the same contract; each
# case's test id is the product's name
PRODUCTS = {
    "over": (over(CHERRY, CHERRY), "PlanarTree(text='((||)|)')", ("((||)|)",)),
    "tree_dot": (
        tree_dot(DecoratedTree(CHERRY, Tag.STAR), GENERATOR_TREE),
        "DecoratedTree(shape=PlanarTree(text='((||)|)'), tag=<Tag.DOT: '.'>)",
        (PlanarTree((CHERRY, LEAF)), Tag.DOT),
    ),
    "cube_dot": (cube_dot(CubeVertex((1,)), CubeVertex((1,))), "CubeVertex(text='<+1,-1,+1>')", ("<+1,-1,+1>",)),
}
VALUES += PRODUCTS.values()

REPORT = check_laws(Structure.CUBE, Variety.DUPLEX, 3)
VERIFICATION = verify_identity("ass", 1)
CHECK = CheckResult("x", False, 2, 3, 4)

# (record, its repr, its fields in declaration order)
RECORDS = [
    (
        REPORT,
        "LawReport(structure=<Structure.CUBE: 'cube'>, variety=<Variety.DUPLEX: 'duplex'>, degree_bound=3, "
        "satisfied=True, failing_identity=None, witness=None, triples_checked=1)",
        (Structure.CUBE, Variety.DUPLEX, 3, True, None, None, 1),
    ),
    (
        CHECK,
        "CheckResult(label='x', ok=False, mismatch_degree=2, lhs_coefficient=3, rhs_coefficient=4)",
        ("x", False, 2, 3, 4),
    ),
    (
        VERIFICATION,
        "VerificationReport(name='ass', order=1, ok=True, checks=("
        + ", ".join(
            f"CheckResult(label='alphabet of {s}: words*(1-{s}T) = {s}T', ok=True, mismatch_degree=None, "
            "lhs_coefficient=None, rhs_coefficient=None)"
            for s in (1, 2, 3)
        )
        + "))",
        ("ass", 1, True, VERIFICATION.checks),
    ),
    (CUBE_OPS, f"DuplexOps(dot={CUBE_OPS.dot!r}, star={CUBE_OPS.star!r})", (CUBE_OPS.dot, CUBE_OPS.star)),
    (laws._carrier(Structure.PERM), None, None),
]

ALL = VALUES + RECORDS


def names(cases):
    product_of = {id(case): name for name, case in PRODUCTS.items()}
    return [product_of.get(id(case), type(case[0]).__name__) for case in cases]


@pytest.mark.parametrize("x, text, fields", ALL, ids=names(ALL))
def test_repr_and_hash(x, text, fields):
    if text is not None:
        assert repr(x) == text
    if fields is not None:
        assert hash(x) == hash(fields)


@pytest.mark.parametrize("x, text, fields", VALUES, ids=names(VALUES))
def test_value_equality_stays_within_the_class(x, text, fields):
    rebuilt = copy.copy(x)
    assert rebuilt == x and not rebuilt != x
    assert x != fields and fields != x
    assert x != fields[0]
    other = [v for v, _, _ in VALUES if type(v) is not type(x)]
    assert all(x != v and v != x for v in other)
    assert (x.__eq__(fields), x.__eq__(None)) == (NotImplemented, NotImplemented)


def test_every_value_class_is_held_to_the_contract():
    # a value class of the package that no case above covers would escape it
    for module in pkgutil.iter_modules(duplexes.__path__):
        importlib.import_module(f"duplexes.{module.name}")
    found, pending = set(), [_Value]
    while pending:
        subclasses = pending.pop().__subclasses__()
        found.update(cls for cls in subclasses if cls.__module__.startswith("duplexes."))
        pending += subclasses
    assert found == {type(v) for v, _, _ in VALUES}


@pytest.mark.parametrize("x, text, fields", VALUES, ids=names(VALUES))
def test_unchecked_construction_makes_an_equal_value(x, text, fields):
    made = type(x)._make(*(getattr(x, name) for name in type(x).__slots__))
    assert type(made) is type(x)
    assert made == x and hash(made) == hash(x) and repr(made) == repr(x)


def test_records_compare_by_value():
    assert CheckResult("x", False, 2, 3, 4) == CHECK
    assert CheckResult("x", True) != CHECK
    assert CheckResult("x", True).mismatch_degree is None
    assert REPORT == check_laws(Structure.CUBE, Variety.DUPLEX, 3)
    assert REPORT != CHECK and REPORT != None  # noqa: E711
    assert DuplexOps(CUBE_OPS.dot, CUBE_OPS.star) == CUBE_OPS
    assert VERIFICATION.first_failure() is None


@pytest.mark.parametrize("x, text, fields", ALL, ids=names(ALL))
def test_no_assignment(x, text, fields):
    name = next(iter(type(x).__annotations__))
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(x, name))
    with pytest.raises(AttributeError):
        delattr(x, name)


@pytest.mark.parametrize("x, text, fields", ALL, ids=names(ALL))
def test_pickle_and_copy_round_trips(x, text, fields):
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(clone) is type(x)
        assert clone == x
        assert hash(clone) == hash(x)
        assert repr(clone) == repr(x)
