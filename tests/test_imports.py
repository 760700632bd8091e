"""What each entry point loads, checked in a fresh interpreter: the package
imports its modules on first use, and a CLI subcommand loads only the
modules it runs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import duplexes

SRC = str(Path(duplexes.__file__).resolve().parent.parent)

# run in the child: import the CLI, run argv, print the modules that appeared
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import duplexes.cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = duplexes.cli.main(argv)
    assert code == 0, code
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def run_python(code, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(*argv):
    return set(json.loads(run_python(PROBE, *argv)))


def package_modules(loaded):
    return {name.removeprefix("duplexes.") for name in loaded if name.startswith("duplexes.")}


def test_importing_the_cli_loads_no_carrier_and_no_dataclasses():
    loaded = loaded_by()
    assert "dataclasses" not in loaded
    assert package_modules(loaded) == {"cli", "errors"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            ("enumerate", "--structure", "cube", "--n", "3"),
            {"permutations", "decorated_trees", "planar_trees", "laws", "series", "morphisms"},
        ),
        (
            ("enumerate", "--structure", "binary", "--n", "3"),
            {"permutations", "decorated_trees", "laws", "series", "morphisms", "cubes"},
        ),
        (("factor", "--perm", "(3,1,2)", "--mode", "duplex"), {"laws", "series", "morphisms"}),
        (
            ("verify", "--check", "ass", "--order", "3"),
            {"permutations", "decorated_trees", "planar_trees", "laws", "morphisms", "cubes"},
        ),
        (
            ("count", "--sequence", "catalan", "--max", "8"),
            {"permutations", "decorated_trees", "laws", "morphisms", "cubes", "binary_trees"},
        ),
        (
            ("laws", "--structure", "cube", "--variety", "duplexes2", "--bound", "3"),
            {"permutations", "decorated_trees", "binary_trees", "series", "morphisms"},
        ),
        (
            ("laws", "--structure", "binary", "--variety", "duplexes1", "--bound", "3"),
            {"permutations", "decorated_trees", "cubes", "series", "morphisms"},
        ),
        (
            ("laws", "--structure", "decorated", "--variety", "duplex", "--bound", "3"),
            {"permutations", "binary_trees", "cubes", "series", "morphisms"},
        ),
        (
            ("laws", "--structure", "perm", "--variety", "duplex", "--bound", "3"),
            {"decorated_trees", "planar_trees", "binary_trees", "cubes", "series", "morphisms"},
        ),
        (("map", "--morphism", "phi", "--input", "(||)"), {"permutations", "decorated_trees", "laws", "series"}),
        # the permutation-only commands load no tree module
        (
            ("count", "--sequence", "u", "--max", "6"),
            {"decorated_trees", "planar_trees", "binary_trees", "cubes", "laws", "morphisms"},
        ),
        (
            ("verify", "--check", "usformula", "--order", "5"),
            {"decorated_trees", "planar_trees", "binary_trees", "cubes", "laws", "morphisms"},
        ),
        (
            ("enumerate", "--structure", "perm", "--n", "4"),
            {"decorated_trees", "planar_trees", "binary_trees", "cubes", "laws", "series", "morphisms"},
        ),
        (
            ("factor", "--perm", "(3,1,2)", "--mode", "sharp"),
            {"decorated_trees", "planar_trees", "binary_trees", "cubes", "laws", "series", "morphisms"},
        ),
        (
            ("eval", "--target", "cube", "--expr", "e.(e*e)"),
            {"permutations", "binary_trees", "laws", "series"},
        ),
    ],
    ids=[
        "enumerate", "enumerate-binary", "factor", "verify", "count",
        "laws", "laws-binary", "laws-decorated", "laws-perm", "map",
        "count-u", "verify-usformula", "enumerate-perm", "factor-sharp", "eval-cube",
    ],  # fmt: skip
)
def test_a_subcommand_loads_only_what_it_runs(argv, absent):
    loaded = loaded_by(*argv)
    assert "dataclasses" not in loaded
    assert not package_modules(loaded) & absent


@pytest.mark.parametrize("structure, bound", [("perm", 8), ("decorated", 10), ("binary", 10), ("cube", 10)])
def test_a_laws_bound_past_its_limit_loads_no_carrier(structure, bound):
    # the limit is checked before the audit imports its carrier's module
    argv = ["laws", "--structure", structure, "--variety", "duplex", "--bound", str(bound)]
    out = run_python(
        "import sys, duplexes.cli\n"
        f"code = duplexes.cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('duplexes.')))"
    )
    assert out.splitlines() == ["3 ['duplexes.cli', 'duplexes.errors', 'duplexes.laws']"]


@pytest.mark.parametrize("check", ["desformula", "usformula", "cor52"])
def test_a_verify_order_past_its_bound_loads_no_carrier(check):
    # the count's bound is checked before the count imports permutations
    argv = ["verify", "--check", check, "--order", "9"]
    out = run_python(
        "import sys, duplexes.cli\n"
        f"code = duplexes.cli.main({argv!r})\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('duplexes.')))"
    )
    assert out.splitlines() == ["3 ['duplexes._values', 'duplexes.cli', 'duplexes.errors', 'duplexes.series']"]


def test_importing_laws_loads_no_carrier():
    out = run_python("import sys, duplexes.laws\nprint(sorted(m for m in sys.modules if m.startswith('duplexes.')))")
    assert out.splitlines() == ["['duplexes.errors', 'duplexes.laws']"]


@pytest.mark.parametrize(
    "module, absent",
    [
        ("permutations", {"decorated_trees", "planar_trees"}),
        ("series", {"planar_trees", "permutations", "decorated_trees"}),
        ("morphisms", {"permutations", "decorated_trees", "cubes"}),
    ],
    ids=["permutations", "series", "morphisms"],
)
def test_a_module_loads_no_carrier_it_does_not_build(module, absent):
    out = run_python(f"import json, sys, duplexes.{module}\nprint(json.dumps(list(sys.modules)))")
    loaded = package_modules(json.loads(out))
    assert module in loaded
    assert not loaded & absent


# in the child: duplex_factorize reads decorated_trees on its first call; the
# globals it fills are reset before every permutation of the first pass, so
# each of them is factorized through that first-use path once
FIRST_USE = """
import itertools, sys
from duplexes import permutations as p
assert "duplexes.decorated_trees" not in sys.modules
perms = [p.Permutation(images) for n in range(1, 7) for images in itertools.permutations(range(1, n + 1))]
first = []
for f in perms:
    p.GENERATOR_TREE = p._decorated = p._expr = None
    first.append(p.duplex_factorize(f))
from duplexes.decorated_trees import DuplexExpr, format_expr
later = [p.duplex_factorize(f) for f in perms]
assert all(type(x) is DuplexExpr for x in first)
assert first == later
assert [format_expr(x, p.format_permutation) for x in first] == [format_expr(x, p.format_permutation) for x in later]
assert [p.multiply_out(x) for x in first] == perms
print(len(perms))
"""


def test_the_first_duplex_factorization_reads_decorated_trees_and_equals_the_later_ones():
    assert run_python(FIRST_USE).split() == ["873"]


# the package's exports, sorted: every name the package resolves on first use, and its modules
EXPORTS = [
    "ArityTooSmall", "BINARY_OPS", "BoundExceeded", "CUBE_OPS", "ComposeNonzeroConstant",
    "CubeVertex", "DECORATED_OPS", "DecoratedTree", "DuplexError",
    "DuplexExpr", "DuplexOps", "ExprSyntaxError", "IndecKind", "InvalidDegree", "LEAF", "LawReport",
    "MixedChainError", "PERM_OPS", "ParseError", "Permutation", "PlanarTree", "SINGLETON", "SINGLE_NODE",
    "Series", "Structure", "StubNotSplittable", "Tag", "UnboundGenerator", "UnknownGenerator", "Variety",
    "alpha", "binary_trees", "catalan", "check_laws", "count_indecomposable", "cubes",
    "decorated_trees", "dot", "duplex_factorize", "enumerate_binary", "enumerate_cubes",
    "enumerate_decorated", "enumerate_indecomposable", "enumerate_permutations", "enumerate_trees", "errors",
    "eval_duplexes1", "eval_hom", "format_expr", "format_permutation", "from_counts",
    "is_indecomposable", "laws", "leaf_count", "leaf_expr", "leaf_sign_vector", "morphisms",
    "multiply_out", "natural", "natural_factorize", "over", "parse_expr", "parse_permutation", "permutations",
    "phi", "planar_trees", "rho", "series", "sharp", "sharp_factorize", "split", "star",
    "super_catalan", "under", "verify_identity", "xi",
]  # fmt: skip


def test_package_exports_resolve():
    assert duplexes.__all__ == EXPORTS
    assert set(EXPORTS) <= set(dir(duplexes))
    for name in EXPORTS:
        getattr(duplexes, name)
    assert duplexes.Permutation is duplexes.permutations.Permutation
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        duplexes.nonesuch  # noqa: B018


def test_import_duplexes_loads_no_submodule_until_asked():
    out = run_python(
        "import sys, duplexes\n"
        "print(sorted(m for m in sys.modules if m.startswith('duplexes.')))\n"
        "print(duplexes.permutations.__name__, 'duplexes.cubes' in sys.modules)"
    )
    assert out.splitlines() == ["[]", "duplexes.permutations False"]


def test_an_export_is_cached_on_first_use():
    vars(duplexes).pop("SINGLETON", None)
    assert duplexes.SINGLETON is duplexes.cubes.SINGLETON
    assert vars(duplexes)["SINGLETON"] is duplexes.cubes.SINGLETON
