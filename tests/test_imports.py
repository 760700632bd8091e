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
        (("enumerate", "--structure", "cube", "--n", "3"), {"permutations", "decorated_trees", "laws", "series", "morphisms"}),
        (
            ("enumerate", "--structure", "binary", "--n", "3"),
            {"permutations", "decorated_trees", "laws", "series", "morphisms", "cubes"},
        ),
        (("factor", "--perm", "(3,1,2)", "--mode", "duplex"), {"laws", "series", "morphisms"}),
        (("verify", "--check", "ass", "--order", "3"), {"permutations", "decorated_trees", "laws", "morphisms", "cubes"}),
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
        # a permutation's factorization is a decorated-tree expression, so
        # permutations itself imports decorated_trees
        (
            ("laws", "--structure", "perm", "--variety", "duplex", "--bound", "3"),
            {"binary_trees", "cubes", "series", "morphisms"},
        ),
        (("map", "--morphism", "phi", "--input", "(||)"), {"laws", "series"}),
    ],
    ids=[
        "enumerate", "enumerate-binary", "factor", "verify", "count",
        "laws", "laws-binary", "laws-decorated", "laws-perm", "map",
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
    assert out.splitlines() == ["3 ['duplexes.cli', 'duplexes.errors', 'duplexes.planar_trees', 'duplexes.series']"]


def test_importing_laws_loads_no_carrier():
    out = run_python("import sys, duplexes.laws\nprint(sorted(m for m in sys.modules if m.startswith('duplexes.')))")
    assert out.splitlines() == ["['duplexes.errors', 'duplexes.laws']"]


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
    "phi", "planar_trees", "rho", "series", "sharp", "sharp_factorize", "split", "star", "sum_of_powers",
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
