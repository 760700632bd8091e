import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import alternating, nest_images, nest_permutation, nest_text
import duplexes
from duplexes import binary_trees, cli, cubes, laws, permutations, series
from duplexes.cli import main
from duplexes.cubes import CubeVertex, format_cube, parse_cube
from duplexes.decorated_trees import expr_from_machine, parse_expr
from duplexes.permutations import IndecKind, Permutation, duplex_factorize, format_permutation, parse_permutation
from duplexes.planar_trees import parse_tree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_sharp(capsys):
    code, out, _ = run(capsys, "factor", "--perm", "(3,1,2,6,5,4)", "--mode", "sharp")
    assert code == 0
    assert out.strip() == "(3,1,2) (3,2,1)"


def test_factor_natural(capsys):
    code, out, _ = run(capsys, "factor", "--perm", "(3,1,2)", "--mode", "natural")
    assert code == 0
    assert out.strip() == "(1) (1,2)"


def test_factor_duplex(capsys):
    code, out, _ = run(capsys, "factor", "--perm", "(3,1,2)", "--mode", "duplex")
    assert code == 0
    assert out.strip() == "(1)*((1).(1))"


def test_factor_duplex_json_round_trips(capsys):
    code, out, _ = run(capsys, "factor", "--perm", "(3,1,2,6,5,4)", "--mode", "duplex", "--json")
    assert code == 0
    payload = json.loads(out)
    result = payload["result"]
    rebuilt = expr_from_machine(
        (result["tree"], result["tag"], result["labels"]), parse_permutation
    )
    assert rebuilt == duplex_factorize(Permutation((3, 1, 2, 6, 5, 4)))


def test_count_d(capsys):
    code, out, _ = run(capsys, "count", "--sequence", "d", "--max", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1 1"
    assert lines[-1] == "7 1854"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--sequence", "super-catalan", "--max", "5", "--json")
    payload = json.loads(out)
    assert payload["result"] == [[1, 1], [2, 1], [3, 3], [4, 11], [5, 45]]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit cap")
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_count_prints_integers_past_the_digit_cap(capsys, json_flag):
    # catalan(1200) has 718 digits; the cap holds again once the output is written
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "count", "--sequence", "catalan", "--max", "1200", *json_flag)
        cap_after = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(cap)
    assert (code, err, cap_after) == (0, "", 640)
    last = json.loads(out)["result"][-1] if json_flag else out.splitlines()[-1].split()
    assert [int(v) for v in last] == [1200, binary_trees.catalan(1200)]


def test_enumerate_perm_filter(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--structure", "perm", "--n", "4", "--filter", "s2-indec"
    )
    assert code == 0
    assert out.strip().splitlines() == ["(2,4,1,3)", "(3,1,4,2)"]


def test_enumerate_json_round_trips(capsys):
    cases = {
        "perm": parse_permutation,
        "tree": parse_tree,
        "binary": parse_tree,
        "cube": parse_cube,
        "decorated": lambda text: parse_expr(text, {"e"}),
    }
    for structure, parser in cases.items():
        code, out, _ = run(capsys, "enumerate", "--structure", structure, "--n", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        rendered = payload["result"]
        assert rendered == sorted(set(rendered), key=rendered.index)  # no duplicates
        for text in rendered:
            parser(text)


def test_enumerate_filter_needs_perm(capsys):
    code, _, err = run(
        capsys, "enumerate", "--structure", "tree", "--n", "3", "--filter", "s2-indec"
    )
    assert code == 2
    assert "--filter" in err


def test_eval_targets(capsys):
    assert run(capsys, "eval", "--expr", "e*(e.e)", "--target", "perm")[1].strip() == "(3,1,2)"
    assert run(capsys, "eval", "--expr", "e.e", "--target", "binary")[1].strip() == "((||)|)"
    assert run(capsys, "eval", "--expr", "e*e", "--target", "cube")[1].strip() == "<+1>"


def test_map_morphisms(capsys):
    assert run(capsys, "map", "--morphism", "alpha", "--input", "e*(e.e)")[1].strip() == "(3,1,2)"
    assert run(capsys, "map", "--morphism", "rho", "--input", "e.e")[1].strip() == "((||)|)"
    assert run(capsys, "map", "--morphism", "phi", "--input", "((||)|)")[1].strip() == "<-1>"
    assert (
        run(capsys, "map", "--morphism", "leafsigns", "--input", "(e.e.e)*(e.(e*e))")[1].strip()
        == "<-1,-1,+1,-1,+1>"
    )


def test_laws_satisfied(capsys):
    code, out, _ = run(
        capsys, "laws", "--structure", "binary", "--variety", "duplexes1", "--bound", "6"
    )
    assert code == 0
    assert out.startswith("SATISFIED")


def test_laws_witness(capsys):
    code, out, _ = run(
        capsys, "laws", "--structure", "perm", "--variety", "duplexes1", "--bound", "3"
    )
    assert code == 1
    assert "REFUTED: (a.b)*c = a.(b*c)" in out
    assert "a=(1) b=(1) c=(1)" in out


def test_laws_json(capsys):
    code, out, _ = run(
        capsys, "laws", "--structure", "cube", "--variety", "duplexes2", "--bound", "9", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["satisfied"] is True
    assert payload["result"]["triples_checked"] == 2815


def test_verify_pass(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--check", "cor52", "--order", "7")
    assert code == 0
    assert out.strip() == "PASS"
    # a miscounted word scan: one word too many of length 2
    monkeypatch.setattr(series, "_word_counts", lambda s, order: [s**n + (n == 2) for n in range(1, order + 1)])
    code, out, _ = run(capsys, "verify", "--check", "ass", "--order", "3")
    assert code == cli.EXIT_REFUTED == 1
    assert out == "FAIL alphabet of 1: words*(1-1T) = 1T: first differing coefficient at degree 2: lhs=1 rhs=0\n"


def test_verify_all_checks(capsys):
    for check in ("ass", "fesvi", "usformula", "supercatalan", "dupl", "desformula", "cor52"):
        code, out, _ = run(capsys, "verify", "--check", check)
        assert code == 0, check
        assert out.strip() == "PASS"


def test_usage_errors(capsys):
    assert run(capsys, "factor", "--perm", "(1,1)", "--mode", "sharp")[0] == 2
    assert run(capsys, "eval", "--expr", "e.e*e", "--target", "perm")[0] == 2
    assert run(capsys, "count", "--sequence", "u", "--max", "3", "--bogus")[0] == 2
    assert run(capsys, "verify", "--check", "nonsense")[0] == 2


def test_bound_exceeded_exit(capsys):
    code, _, err = run(capsys, "enumerate", "--structure", "perm", "--n", "9")
    assert code == 3
    assert "bound" in err
    for sequence in ("u", "d"):
        code, out, err = run(capsys, "count", "--sequence", sequence, "--max", "9")
        assert (code, out, err) == (3, "", "error: degree 9 exceeds the enumeration bound 8\n")
    # the computed sequences too, at once: no coefficient is computed first
    for sequence, bound in (("catalan", 10_000), ("super-catalan", 1200)):
        code, out, err = run(capsys, "count", "--sequence", sequence, "--max", "10000000")
        assert (code, out, err) == (3, "", f"error: degree 10000000 exceeds the enumeration bound {bound}\n")


def test_byte_identical_reruns(capsys):
    first = run(capsys, "enumerate", "--structure", "decorated", "--n", "4", "--json")
    second = run(capsys, "enumerate", "--structure", "decorated", "--n", "4", "--json")
    assert first == second


def test_factor_duplex_deep_nest(capsys):
    word = alternating(500)
    code, out, err = run(capsys, "factor", "--perm", format_permutation(nest_permutation(word)), "--mode", "duplex", "--json")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["expr"] == nest_text(word).replace("e", "(1)")


def test_eval_deep_expression(capsys):
    word = alternating(600)
    code, out, err = run(capsys, "eval", "--expr", nest_text(word), "--target", "perm")
    assert code == 0, err
    assert out.strip() == format_permutation(nest_permutation(word))


def test_alpha_and_perm_eval_of_a_deep_nest(capsys):
    word = alternating(10**4)
    want = format_permutation(nest_images(word))
    for argv in (("map", "--morphism", "alpha", "--input"), ("eval", "--target", "perm", "--expr")):
        code, out, err = run(capsys, *argv, nest_text(word))
        assert code == 0, err
        assert out.strip() == want
    code, out, err = run(capsys, "factor", "--perm", want, "--mode", "duplex", "--json")
    assert code == 0, err
    assert json.loads(out)["result"]["expr"] == nest_text(word).replace("e", "(1)")


def test_cube_eval_reads_the_leaf_signs(capsys, monkeypatch):
    # eval --target cube reads the operator word as map --morphism leafsigns
    # does, so it needs no cube product even on a 10^4-deep nest.  Each
    # product is its own function and CUBE_OPS holds them, so every route to
    # a product is replaced.
    def no_products(*args):
        raise AssertionError("cube eval must not multiply cube vertices")

    monkeypatch.setattr(cubes, "cube_dot", no_products)
    monkeypatch.setattr(cubes, "cube_star", no_products)
    monkeypatch.setattr(cubes, "CUBE_OPS", cubes.DuplexOps(no_products, no_products))
    nest = nest_text(alternating(10**4))
    code, out, err = run(capsys, "eval", "--target", "cube", "--expr", nest)
    assert code == 0, err
    assert (code, out, err) == run(capsys, "map", "--morphism", "leafsigns", "--input", nest)
    assert run(capsys, "eval", "--target", "cube", "--expr", "e") == (0, "e\n", "")
    assert run(capsys, "map", "--morphism", "leafsigns", "--input", "e") == (0, "e\n", "")


def test_cube_maps_need_a_single_generator(capsys):
    for argv in (("map", "--morphism", "leafsigns", "--input"), ("eval", "--target", "cube", "--expr")):
        code, out, err = run(capsys, *argv, "a.b")
        assert (code, out) == (2, ""), argv
        assert err.count("\n") == 1 and "single-generator" in err, argv


def test_map_rho_and_phi_of_a_long_chain(capsys):
    # rho of a 3000-term "." chain is a left comb 3000 vertices deep
    code, out, err = run(capsys, "map", "--morphism", "rho", "--input", ".".join(["e"] * 3000))
    assert code == 0, err
    comb = "(" * 3000 + "||)" + "|)" * 2999
    assert out.strip() == comb
    code, out, err = run(capsys, "map", "--morphism", "phi", "--input", comb)
    assert code == 0, err
    assert out.strip() == format_cube(CubeVertex((-1,) * 2999))


def run_stdin(capsys, monkeypatch, stdin, *argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    return run(capsys, *argv)


STDIN_CASES = [
    ("factor", "--mode", "duplex", "--perm", "(3,1,2,6,5,4)"),
    ("factor", "--mode", "sharp", "--perm", "(3,1,2,6,5,4)"),
    ("eval", "--target", "perm", "--expr", "(e.e.e)*(e.(e*e))"),
    ("eval", "--target", "cube", "--expr", "e * e"),
    ("map", "--morphism", "alpha", "--input", "e*(e.e)"),
    ("map", "--morphism", "rho", "--input", "e*(e.e)"),
    ("map", "--morphism", "phi", "--input", "((||)|)"),
    ("map", "--morphism", "leafsigns", "--input", "e.e"),
    # usage errors keep their exit code and message
    ("factor", "--mode", "sharp", "--perm", "(1,1)"),
    ("eval", "--target", "cube", "--expr", "e."),
    ("map", "--morphism", "leafsigns", "--input", "a.b"),
    ("map", "--morphism", "phi", "--input", ""),
]


@pytest.mark.parametrize("argv", STDIN_CASES, ids=" ".join)
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_dash_reads_the_text_from_standard_input(capsys, monkeypatch, argv, json_flag):
    *options, text = argv
    want = run(capsys, *options, text, *json_flag)
    # trailing newlines are dropped, as "$(...)" drops them
    assert run_stdin(capsys, monkeypatch, text + "\n\n", *options, "-", *json_flag) == want
    assert run_stdin(capsys, monkeypatch, text, *options, "-", *json_flag) == want


def test_a_nest_past_the_argument_limit_reaches_the_cli_through_standard_input(capsys, monkeypatch):
    nest = nest_text(alternating(10**5))
    assert len(nest.encode()) > 128 * 1024
    code, signs, err = run_stdin(capsys, monkeypatch, nest + "\n", "eval", "--target", "cube", "--expr", "-")
    assert code == 0, err
    code, tree, err = run_stdin(capsys, monkeypatch, nest, "map", "--morphism", "rho", "--input", "-")
    assert code == 0, err
    code, via_trees, err = run_stdin(capsys, monkeypatch, tree, "map", "--morphism", "phi", "--input", "-")
    assert code == 0, err
    assert via_trees == signs


def test_unexpected_exception_exits_internal(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("count routes disagree")

    monkeypatch.setattr(cli, "_cmd_count", boom)
    code, out, err = run(capsys, "count", "--sequence", "u", "--max", "3")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: RuntimeError: count routes disagree\n"


def test_count_route_mismatch_exits_internal(capsys, monkeypatch):
    # a DuplexError, yet a fault of the package: exit 4, not the usage exit 2
    formula = series._sharp_indec_formula
    monkeypatch.setattr(series, "_sharp_indec_formula", lambda order: formula(order) + series.Series.monomial(5, order))
    code, out, err = run(capsys, "count", "--sequence", "u", "--max", "7", "--json")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == (
        "internal error: count routes disagree for sharp-indec: "
        "first differing coefficient at degree 5: chain count=71 formula=72\n"
    )


@pytest.mark.parametrize(
    "check, label, lhs, rhs",
    [
        ("usformula", "sum_k u(T)^k = sum n! T^n", 121, 120),
        ("cor52", "psi^2 + xi*psi - psi + xi = 0", 1, 0),
    ],
)
def test_a_faulty_chain_count_refutes_its_check(capsys, monkeypatch, check, label, lhs, rhs):
    # the check compares the chain count itself, not one already held equal
    # to a formula, so the fault shows as the check's own refutation
    count = permutations.count_indecomposable
    monkeypatch.setattr(permutations, "count_indecomposable", lambda n, kind: count(n, kind) + (n == 5))
    code, out, err = run(capsys, "verify", "--check", check)
    assert (code, err) == (cli.EXIT_REFUTED, "")
    assert out == f"FAIL {label}: first differing coefficient at degree 5: lhs={lhs} rhs={rhs}\n"


def test_a_short_series_route_exits_internal(capsys, monkeypatch):
    # a route two coefficients short fails its check loudly, never passing as
    # a shorter one under the requested order
    word_counts = series._word_counts
    monkeypatch.setattr(series, "_word_counts", lambda s, order: word_counts(s, order)[:-2])
    code, out, err = run(capsys, "verify", "--check", "ass", "--order", "7", "--json")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: ArithmeticError: series orders differ: 5 and 7\n"


def test_recursion_error_exits_bound(capsys, monkeypatch):
    def too_deep(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_map", too_deep)
    code, _, err = run(capsys, "map", "--morphism", "rho", "--input", "e.e")
    assert code == cli.EXIT_BOUND
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_vacuous_requests_are_usage_errors(capsys):
    cases = [
        (("laws", "--structure", "perm", "--variety", "duplex", "--bound", "2"), "--bound must be at least 3"),
        (("verify", "--check", "ass", "--order", "0"), "--order must be at least 1"),
        (("verify", "--check", "cor52", "--order", "-1"), "--order must be at least 1"),
        (("count", "--sequence", "u", "--max", "0"), "--max must be at least 1"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert message in err
    assert run(capsys, "laws", "--structure", "perm", "--variety", "duplex", "--bound", "3")[0] == 0
    assert run(capsys, "count", "--sequence", "u", "--max", "1")[0] == 0


def test_parser_choices_match_the_library():
    # the parser spells these out so that building it imports neither module
    assert list(cli._LAW_STRUCTURES) == [s.value for s in laws.Structure]
    assert list(cli._VARIETIES) == [v.value for v in laws.Variety]
    assert cli._CHECKS == series.CHECKS
    assert {IndecKind[name] for name in cli._FILTER_KINDS.values()} == set(IndecKind)


def program_env():
    src = str(Path(duplexes.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_a_reader_leaving_early_ends_the_output_not_the_command():
    # duplexes factor --perm "$ident" --mode sharp --json | head -c 200: the
    # 20000 factors fill the pipe, so the reader leaves mid-write
    env = program_env()
    ident = "(" + ",".join(map(str, range(1, 20001))) + ")"
    argv = [sys.executable, "-m", "duplexes.cli", "factor", "--perm", ident, "--mode", "sharp", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(200).startswith(b'{"command": "factor"')
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert err == b""
    assert code == cli.EXIT_OK


def test_only_the_program_freezes_the_heap_at_exit(capsys, monkeypatch):
    registered = []
    monkeypatch.setattr(cli.atexit, "register", registered.append)
    frozen = gc.get_freeze_count()
    request = ["verify", "--check", "ass", "--order", "3"]
    assert run(capsys, *request) == (cli.EXIT_OK, "PASS\n", "")
    assert registered == []
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr(sys, "argv", ["duplexes", *request])
    assert main() == cli.EXIT_OK
    assert registered == [gc.freeze]


# one request per subcommand, and one for each of the exits 1, 2 and 3
PROGRAM_REQUESTS = [
    (("enumerate", "--structure", "cube", "--n", "3", "--json"), cli.EXIT_OK),
    (("count", "--sequence", "d", "--max", "7"), cli.EXIT_OK),
    (("factor", "--perm", "(3,1,2,6,5,4)", "--mode", "duplex", "--json"), cli.EXIT_OK),
    (("eval", "--expr", "e*(e.e)", "--target", "perm"), cli.EXIT_OK),
    (("map", "--morphism", "leafsigns", "--input", "(e.e.e)*(e.(e*e))", "--json"), cli.EXIT_OK),
    (("laws", "--structure", "cube", "--variety", "duplexes2", "--bound", "3"), cli.EXIT_OK),
    (("verify", "--check", "cor52", "--order", "7", "--json"), cli.EXIT_OK),
    (("laws", "--structure", "perm", "--variety", "duplexes1", "--bound", "3"), cli.EXIT_REFUTED),
    (("laws", "--structure", "cube", "--variety", "duplexes2", "--bound", "2"), cli.EXIT_USAGE),
    (("enumerate", "--structure", "tree", "--n", "11"), cli.EXIT_BOUND),
]


@pytest.mark.parametrize("argv, exit_code", PROGRAM_REQUESTS, ids=[" ".join(argv) for argv, _ in PROGRAM_REQUESTS])
def test_the_program_and_main_argv_give_the_same_bytes(capsys, argv, exit_code):
    # the program path: main() reads sys.argv, as the console script calls it
    entry = "import sys; from duplexes.cli import main; sys.exit(main())"
    proc = subprocess.run([sys.executable, "-c", entry, *argv], capture_output=True, env=program_env(), timeout=120)
    code, out, err = run(capsys, *argv)
    assert code == exit_code
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
