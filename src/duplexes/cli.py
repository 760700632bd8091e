"""Command-line front end.

Subcommands: enumerate, count, factor, eval, map, laws, verify.  Every
subcommand takes ``--json`` for a machine-readable envelope
``{"command": ..., "inputs": ..., "result": ...}``.

Exit status: 0 success/verified, 1 refuted or witness found, 2 usage
error (including requests that would check nothing: ``laws --bound`` below
3, ``verify --order`` or ``count --max`` below 1), 3 resource bound exceeded
(an enumeration bound; no routine recurses on its input, and a
``RecursionError`` still exits 3 as a last boundary), 4 internal error
(an unexpected exception, or a ``CountRouteMismatch``: two count routes
that disagree).
Errors are reported as one line on stderr, never as a traceback, so a
crash cannot read as exit 1.  A reader that closes stdout early (``| head``)
ends the output, not the command: the exit status is still the result's.
The value ``-`` of ``factor --perm``, ``eval --expr`` and ``map --input``
reads the text from standard input, without its trailing newlines; the
envelope's ``inputs`` then holds the text read.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import re
import sys
from typing import Iterable

from .errors import BoundExceeded, CountRouteMismatch, DuplexError

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4

# The parser's choices are literals, so that building it imports no
# carrier, ``laws`` or ``series``; a test holds them equal to the names
# those modules define.  A subcommand imports only the modules it runs.
_FILTER_KINDS = {  # --filter choice -> permutations.IndecKind member name
    "sharp-indec": "SHARP",
    "natural-indec": "NATURAL",
    "s2-indec": "S2",
}

_LAW_STRUCTURES = ("perm", "decorated", "binary", "cube")  # laws.Structure values
_VARIETIES = ("duplex", "duplexes1", "duplexes2", "dimonoid")  # laws.Variety values
_CHECKS = ("ass", "fesvi", "usformula", "supercatalan", "dupl", "desformula", "cor52")  # series.CHECKS

_COUNT_SOURCES = {
    "u": "sharp-indec",
    "d": "s2-indec",
    "super-catalan": "super-catalan",
    "catalan": "catalan",
    "decorated": "dupl",
}

# The options whose value "-" means standard input: one argument is capped
# (128 KiB on Linux), and deep nests are longer.
_TEXT_OPTIONS = ("perm", "expr", "input")
_STDIN_HELP = "the text, or - to read it from standard input"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duplexes",
        description="Enumerate, factor and evaluate elements of the two-operation "
        "structures on permutations, trees and cube vertices; audit their laws "
        "and verify the counting identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list a degree slice in canonical order")
    p.add_argument("--structure", required=True, choices=["perm", "tree", "decorated", "binary", "cube"])
    p.add_argument("--n", required=True, type=int, metavar="N")
    p.add_argument("--filter", choices=sorted(_FILTER_KINDS), help="perm only")
    _json_flag(p)

    p = sub.add_parser("count", help="print 'n value' lines of a counting sequence")
    p.add_argument("--sequence", required=True, choices=list(_COUNT_SOURCES))
    p.add_argument("--max", required=True, type=int, metavar="N", dest="max_degree")
    _json_flag(p)

    p = sub.add_parser("factor", help="factor a permutation")
    p.add_argument("--perm", required=True, metavar="(...)", help=_STDIN_HELP)
    p.add_argument("--mode", required=True, choices=["sharp", "natural", "duplex"])
    _json_flag(p)

    p = sub.add_parser("eval", help="evaluate a one-generator expression in a target structure")
    p.add_argument("--expr", required=True, help=_STDIN_HELP)
    p.add_argument("--target", required=True, choices=["perm", "binary", "cube"])
    _json_flag(p)

    p = sub.add_parser("map", help="apply one of the canonical homomorphisms")
    p.add_argument("--morphism", required=True, choices=["alpha", "rho", "phi", "leafsigns"])
    p.add_argument("--input", required=True, help=_STDIN_HELP)
    _json_flag(p)

    p = sub.add_parser("laws", help="audit the identities of a variety by exhaustive search")
    p.add_argument("--structure", required=True, choices=_LAW_STRUCTURES)
    p.add_argument("--variety", required=True, choices=_VARIETIES)
    p.add_argument("--bound", required=True, type=int, metavar="B")
    _json_flag(p)

    p = sub.add_parser("verify", help="check a counting identity coefficient-wise")
    p.add_argument("--check", required=True, choices=_CHECKS)
    p.add_argument("--order", type=int, help="truncation order (default depends on the check)")
    _json_flag(p)

    return parser


def _read_stdin_texts(args: argparse.Namespace) -> None:
    for name in _TEXT_OPTIONS:
        if getattr(args, name, None) == "-":
            # trailing newlines dropped, as the shell's "$(...)" drops them
            setattr(args, name, sys.stdin.read().rstrip("\n"))


def _json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status.

    ``main()`` with no ``argv`` runs as the program (the ``duplexes`` script,
    ``python -m duplexes.cli``): it reads ``sys.argv`` and registers
    ``gc.freeze`` with ``atexit``, so the collections the interpreter runs
    at exit skip the objects the imports made, none of them garbage.  Exit
    still frees objects by reference count and flushes stdout.  ``main(argv)``
    with a list leaves the collector alone: its caller owns the process.
    """
    if argv is None:
        # atexit handlers run before the exit collections, which would walk
        # every object alive and ignore gc.disable()
        atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already reported on stderr
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except CountRouteMismatch as exc:  # a failed internal cross-check, not a usage error
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (DuplexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: input nested too deeply for the recursion limit", file=sys.stderr)
        return EXIT_BOUND
    except Exception as exc:  # the last boundary: no traceback, and never exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args: argparse.Namespace) -> int:
    _read_stdin_texts(args)
    handler = {
        "enumerate": _cmd_enumerate,
        "count": _cmd_count,
        "factor": _cmd_factor,
        "eval": _cmd_eval,
        "map": _cmd_map,
        "laws": _cmd_laws,
        "verify": _cmd_verify,
    }[args.command]
    return handler(args)


def _require_at_least(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ValueError(f"{flag} must be at least {minimum}, got {value}; nothing would be checked")


def _emit(args: argparse.Namespace, inputs: dict, result, lines: Iterable[str]) -> None:
    # results are exact integers of any size, so the interpreter's cap on
    # int-to-str digits is lifted while they are written (``lines`` may
    # format them lazily), and only then: parsing an input keeps it
    digit_cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digit_cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.json:
            print(json.dumps({"command": args.command, "inputs": inputs, "result": result}))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left, and the interpreter's
        # flush at exit, to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    finally:
        if digit_cap is not None:
            sys.set_int_max_str_digits(digit_cap)


def _cmd_enumerate(args) -> int:
    if args.filter and args.structure != "perm":
        raise ValueError("--filter applies only to --structure perm")
    n = args.n
    if args.structure == "perm":
        from . import permutations

        if args.filter:
            kind = permutations.IndecKind[_FILTER_KINDS[args.filter]]
            elements = permutations.enumerate_indecomposable(n, kind)
        else:
            elements = permutations.enumerate_permutations(n)
        rendered = [permutations.format_permutation(f) for f in elements]
    elif args.structure == "tree":
        from . import planar_trees

        rendered = [planar_trees.format_tree(t) for t in planar_trees.enumerate_trees(n)]
    elif args.structure == "decorated":
        from . import decorated_trees

        rendered = [
            decorated_trees.format_expr(decorated_trees.DuplexExpr(t, ("e",) * t.degree))
            for t in decorated_trees.enumerate_decorated(n)
        ]
    elif args.structure == "binary":
        from . import binary_trees, planar_trees

        rendered = [planar_trees.format_tree(u) for u in binary_trees.enumerate_binary(n)]
    else:
        from . import cubes

        rendered = [cubes.format_cube(a) for a in cubes.enumerate_cubes(n)]
    inputs = {"structure": args.structure, "n": n}
    if args.filter:
        inputs["filter"] = args.filter
    _emit(args, inputs, rendered, rendered)
    return EXIT_OK


def _cmd_count(args) -> int:
    _require_at_least("--max", args.max_degree, 1)
    from . import series

    source = _COUNT_SOURCES[args.sequence]
    values = series.from_counts(source, args.max_degree)
    pairs = [[n, values.coefficients[n]] for n in range(1, args.max_degree + 1)]
    lines = (f"{n} {v}" for n, v in pairs)
    _emit(args, {"sequence": args.sequence, "max": args.max_degree}, pairs, lines)
    return EXIT_OK


def _cmd_factor(args) -> int:
    from . import permutations

    f = permutations.parse_permutation(args.perm)
    inputs = {"perm": permutations.format_permutation(f), "mode": args.mode}
    if args.mode in ("sharp", "natural"):
        factorize = permutations.sharp_factorize if args.mode == "sharp" else permutations.natural_factorize
        factors = [permutations.format_permutation(g) for g in factorize(f)]
        _emit(args, inputs, factors, [" ".join(factors)])
        return EXIT_OK
    from . import decorated_trees

    expr = permutations.duplex_factorize(f)
    text = decorated_trees.format_expr(expr, permutations.format_permutation)
    tree_text, tag, labels = decorated_trees.expr_to_machine(expr, permutations.format_permutation)
    _emit(args, inputs, {"expr": text, "tree": tree_text, "tag": tag, "labels": labels}, [text])
    return EXIT_OK


def _expr_image(morphism: str, text: str) -> str:
    """The image of the expression ``text`` under ``alpha``, ``rho`` or
    ``leafsigns``, as text; every identifier in ``text`` is a generator."""
    from . import decorated_trees, morphisms, planar_trees  # decorated_trees loads planar_trees

    expr = decorated_trees.parse_expr(text, set(re.findall(r"[a-z][a-z0-9]*", text)) or {"e"})
    if morphism == "alpha":
        from . import permutations

        return permutations.format_permutation(morphisms.alpha(expr))
    if morphism == "rho":
        return planar_trees.format_tree(morphisms.rho(expr))
    from . import cubes

    return cubes.format_cube(morphisms.leaf_sign_vector(expr))


def _cmd_eval(args) -> int:
    # every bracketing of a word has one cube value, its leaf signs
    rendered = _expr_image({"perm": "alpha", "binary": "rho", "cube": "leafsigns"}[args.target], args.expr)
    _emit(args, {"expr": args.expr, "target": args.target}, rendered, [rendered])
    return EXIT_OK


def _cmd_map(args) -> int:
    if args.morphism == "phi":
        from . import binary_trees, cubes, morphisms

        rendered = cubes.format_cube(morphisms.phi(binary_trees.parse_binary(args.input)))
    else:
        rendered = _expr_image(args.morphism, args.input)
    _emit(args, {"morphism": args.morphism, "input": args.input}, rendered, [rendered])
    return EXIT_OK


def _cmd_laws(args) -> int:
    _require_at_least("--bound", args.bound, 3)  # an identity needs three elements of degree >= 1
    from . import laws

    structure = laws.Structure(args.structure)
    report = laws.check_laws(structure, laws.Variety(args.variety), args.bound)
    witness = (
        None
        if report.witness is None
        else [laws.format_element(structure, x) for x in report.witness]
    )
    result = {
        "satisfied": report.satisfied,
        "failing_identity": report.failing_identity,
        "witness": witness,
        "triples_checked": report.triples_checked,
    }
    if report.satisfied:
        lines = [
            f"SATISFIED: {args.variety} on {args.structure} up to total degree "
            f"{args.bound} ({report.triples_checked} triples checked)"
        ]
    else:
        lines = [
            f"REFUTED: {report.failing_identity}",
            f"witness: a={witness[0]} b={witness[1]} c={witness[2]}",
            f"({report.triples_checked} triples checked)",
        ]
    _emit(args, {"structure": args.structure, "variety": args.variety, "bound": args.bound}, result, lines)
    return EXIT_OK if report.satisfied else EXIT_REFUTED


def _cmd_verify(args) -> int:
    if args.order is not None:
        _require_at_least("--order", args.order, 1)
    from . import series

    report = series.verify_identity(args.check, args.order)
    checks = [
        {
            "label": c.label,
            "ok": c.ok,
            "mismatch": None
            if c.ok
            else {"degree": c.mismatch_degree, "lhs": c.lhs_coefficient, "rhs": c.rhs_coefficient},
        }
        for c in report.checks
    ]
    result = {"ok": report.ok, "order": report.order, "checks": checks}
    if report.ok:
        lines = ["PASS"]
    else:
        failure = report.first_failure()
        lines = [
            f"FAIL {failure.label}: first differing coefficient at degree "
            f"{failure.mismatch_degree}: lhs={failure.lhs_coefficient} rhs={failure.rhs_coefficient}"
        ]
    _emit(args, {"check": args.check, "order": report.order}, result, lines)
    return EXIT_OK if report.ok else EXIT_REFUTED


if __name__ == "__main__":
    sys.exit(main())
