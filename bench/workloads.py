"""The three workloads as job lists, built from a seed.

Each job has a ``run`` step, the only part that is timed, which calls the
library's public functions (through the tracer, which records a span per
call on traced passes), and a ``check`` step that compares the output with
the pinned seed-commit results or with an independent round trip.

* ``catalog``: every degree slice of every carrier at its default bound,
  rendered, then the 16 structure x variety law audits at their limits.
  Cold caches come from running each pass in a fresh interpreter.
* ``factor``: duplex normal forms of all 8! permutations (the latency
  samples), degree sweeps for growth fits, expression parse/format round
  trips and the canonical morphisms.
* ``cli``: a session of ``duplexes ... --json`` commands, one subprocess at
  a time, covering all seven subcommands.

``small`` selects reduced sizes for the self-test.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CLI_ENTRY = "import sys; from duplexes.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object, object], dict | None]  # (checker, output) -> counts
    sample: bool = True  # counts toward op_p50_ms / op_p90_ms


@dataclass
class Workload:
    jobs: list[Job]
    in_process: bool = True  # false when jobs wait on child processes
    traced_only: Callable[[], None] | None = None  # extra spans recorded on traced passes


def build(name: str, seed: int, tracer, small: bool = False) -> Workload:
    return {"catalog": catalog, "factor": factor, "cli": cli}[name](seed, tracer, small)


# --- closed forms and independent checks ---------------------------------------------


def little_schroeder(m: int) -> int:
    """Trees with m+1 leaves: (1/m) sum_k C(m,k) C(m+k,k-1), and 1 for m = 0."""
    if m == 0:
        return 1
    return sum(math.comb(m, k) * math.comb(m + k, k - 1) for k in range(1, m + 1)) // m


def sharp_indecomposable_count(n: int) -> int:
    """u_n = n! - sum_{k<n} k! u_{n-k}: a permutation splits uniquely into a
    sharp-indecomposable first block and an arbitrary rest."""
    u = [0, 1]
    for m in range(2, n + 1):
        u.append(math.factorial(m) - sum(math.factorial(k) * u[m - k] for k in range(1, m)))
    return u[n]


def is_doubly_indecomposable(images) -> bool:
    n = len(images)
    top, low = 0, n + 1
    for i, v in enumerate(images[:-1], 1):
        top, low = max(top, v), min(low, v)
        if top == i or low > n - i:
            return False
    return True


def is_sharp_indecomposable(images) -> bool:
    top = 0
    for i, v in enumerate(images[:-1], 1):
        top = max(top, v)
        if top == i:
            return False
    return True


# --- seeded inputs -----------------------------------------------------------------------


def random_composite(rng: random.Random, leaves: int, permutations):
    """A random block-sum composite of ``leaves`` random permutations of degree 1..4."""
    parts = []
    for _ in range(leaves):
        k = rng.randint(1, 4)
        parts.append(permutations.Permutation(tuple(rng.sample(range(1, k + 1), k))))
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        op = permutations.sharp if rng.random() < 0.5 else permutations.natural
        parts[i : i + 2] = [op(parts[i], parts[i + 1])]
    return parts[0]


def random_expr_text(rng: random.Random, leaves: int, letters: str) -> str:
    """Expression text in the form ``format_expr`` prints: a chain's parts are
    generators or parenthesized chains of the other operation."""

    def chain(n: int, op: str) -> str:
        k = rng.randint(2, min(n, 4))
        cuts = sorted(rng.sample(range(1, n), k - 1))
        sizes = [b - a for a, b in zip((0, *cuts), (*cuts, n))]
        other = "*" if op == "." else "."
        return op.join(rng.choice(letters) if s == 1 else f"({chain(s, other)})" for s in sizes)

    if leaves == 1:
        return rng.choice(letters)
    return chain(leaves, rng.choice(".*"))


# --- catalog -------------------------------------------------------------------------------

CATALOG_TOP = {"trees": 10, "binary": 10, "decorated": 8, "perm": 8, "cube": 16}
CATALOG_TOP_SMALL = {"trees": 5, "binary": 5, "decorated": 4, "perm": 4, "cube": 6}
AUDIT_LIMITS = {"perm": 7, "decorated": 9, "binary": 9, "cube": 9}
AUDIT_LIMITS_SMALL = {"perm": 4, "decorated": 5, "binary": 5, "cube": 5}


def catalog(seed: int, tr, small: bool) -> Workload:
    # exhaustive, so the seed is not used
    from duplexes import binary_trees, cubes, decorated_trees, laws, permutations, planar_trees

    top = CATALOG_TOP_SMALL if small else CATALOG_TOP
    limits = AUDIT_LIMITS_SMALL if small else AUDIT_LIMITS

    def render_decorated(t):
        return decorated_trees.format_expr(decorated_trees.DuplexExpr(t, ("e",) * t.degree, frozenset({"e"})))

    perm_kinds = {
        "perm": None,
        "perm-sharp": permutations.IndecKind.SHARP,
        "perm-natural": permutations.IndecKind.NATURAL,
        "perm-s2": permutations.IndecKind.S2,
    }

    def perm_size(kind, n):
        if kind in ("perm-sharp", "perm-natural"):
            return sharp_indecomposable_count(n)
        if kind == "perm-s2":
            return 2 * sharp_indecomposable_count(n) - math.factorial(n)
        return math.factorial(n)

    slices = [
        ("trees", top["trees"], "planar_trees.enumerate_trees", planar_trees.enumerate_trees,
         "planar_trees.format_tree", planar_trees.format_tree, lambda n: little_schroeder(n - 1)),
        ("binary", top["binary"], "binary_trees.enumerate_binary", binary_trees.enumerate_binary,
         "binary_trees.format_binary", binary_trees.format_binary,
         lambda n: math.comb(2 * n, n) // (n + 1)),
        ("decorated", top["decorated"], "decorated_trees.enumerate_decorated",
         decorated_trees.enumerate_decorated, "decorated_trees.format_expr", render_decorated,
         lambda n: 1 if n == 1 else 2 * little_schroeder(n - 1)),
    ]
    for kind, indec in perm_kinds.items():
        if indec is None:
            enum_name, enum = "permutations.enumerate_permutations", permutations.enumerate_permutations
        else:
            enum_name = "permutations.enumerate_indecomposable"
            enum = (lambda k: lambda n: permutations.enumerate_indecomposable(n, k))(indec)
        slices.append((kind, top["perm"], enum_name, enum, "permutations.format_permutation",
                       permutations.format_permutation, (lambda k: lambda n: perm_size(k, n))(kind)))
    slices.append(("cube", top["cube"], "cubes.enumerate_cubes", cubes.enumerate_cubes,
                   "cubes.format_cube", cubes.format_cube, lambda n: 2 ** (n - 1)))

    jobs = []
    for kind, degree_top, enum_name, enum, fmt_name, fmt, size in slices:
        enum = tr.wrap(enum_name, enum)
        for n in range(1, degree_top + 1):
            key = f"catalog:{kind}/{n}"

            def run(enum=enum, fmt=fmt, fmt_name=fmt_name, n=n):
                elements = enum(n)
                with tr.span(fmt_name):
                    return [fmt(e) for e in elements]

            def check(ck, rendered, key=key, expected_size=size(n)):
                ck.ok(len(rendered) == expected_size,
                      f"{key}: closed form gives {expected_size} elements, enumeration gave {len(rendered)}")
                ck.seq(key, rendered)

            jobs.append(Job(f"{kind}/{n}", run, check))

    for structure in laws.Structure:
        audit = tr.wrap("laws.check_laws", laws.check_laws, structure.value)
        for variety in laws.Variety:
            bound = limits[structure.value]
            key = f"catalog:laws/{structure.value}/{variety.value}/{bound}"

            def run(audit=audit, structure=structure, variety=variety, bound=bound):
                return audit(structure, variety, bound)

            def check(ck, report, key=key, structure=structure):
                witness = report.witness and [laws.format_element(structure, x) for x in report.witness]
                ck.value(key, {
                    "satisfied": report.satisfied,
                    "failing_identity": report.failing_identity,
                    "witness": witness,
                    "triples_checked": report.triples_checked,
                })
                return {f"triples.{structure.value}": report.triples_checked}

            jobs.append(Job(f"laws/{structure.value}/{variety.value}", run, check))
    return Workload(jobs)


# --- factor --------------------------------------------------------------------------------

FACTOR_SIZES = {
    "perm_degree": 8,
    "identity": (1000, 2000, 4000),
    "alternating": (100, 200, 300),  # both recursive paths overflow the stack past ~330
    "chains": (1000, 2000, 3000),
    "composites": 200,
    "exprs": 200,
    "morphisms": 200,
}
FACTOR_SIZES_SMALL = {
    "perm_degree": 5,
    "identity": (50, 100, 200),
    "alternating": (10, 20, 30),
    "chains": (50, 100, 150),
    "composites": 10,
    "exprs": 10,
    "morphisms": 10,
}


def factor(seed: int, tr, small: bool) -> Workload:
    from duplexes import decorated_trees, morphisms, permutations

    sizes = FACTOR_SIZES_SMALL if small else FACTOR_SIZES
    rng = random.Random(seed)
    P = permutations
    fmt_perm = P.format_permutation

    factorize = tr.wrap("permutations.duplex_factorize", P.duplex_factorize)
    multiply = tr.wrap("permutations.multiply_out", P.multiply_out)
    fmt_expr = tr.wrap("decorated_trees.format_expr", decorated_trees.format_expr)
    parse = tr.wrap("decorated_trees.parse_expr", decorated_trees.parse_expr)
    alpha = tr.wrap("morphisms.alpha", morphisms.alpha)
    rho = tr.wrap("morphisms.rho", morphisms.rho)
    phi = tr.wrap("morphisms.phi", morphisms.phi)
    leaf_signs = tr.wrap("morphisms.leaf_sign_vector", morphisms.leaf_sign_vector)

    jobs: list[Job] = []
    degree = sizes["perm_degree"]
    sweep_texts: list[str] = []
    sweep_key = f"factor:perm{degree}"
    all_perms = P.enumerate_permutations(degree)

    def roundtrip(f, factorize=factorize, fmt_expr=fmt_expr, multiply=multiply):
        x = factorize(f)
        return fmt_expr(x, fmt_perm), multiply(x)

    for i, f in enumerate(all_perms):
        last = i == len(all_perms) - 1

        def check(ck, out, f=f, last=last):
            text, back = out
            ck.ok(back == f, f"{sweep_key}: {fmt_perm(f)} -> {text} multiplies out to {fmt_perm(back)}")
            sweep_texts.append(text)
            if last:
                ck.seq(sweep_key, sweep_texts)

        jobs.append(Job(f"perm{degree}/{i}", lambda f=f: roundtrip(f), check))

    for n in sizes["identity"]:
        identity = P.Permutation(tuple(range(1, n + 1)))
        qualified = (
            tr.wrap("permutations.duplex_factorize", P.duplex_factorize, f"n{n}"),
            tr.wrap("decorated_trees.format_expr", decorated_trees.format_expr, f"n{n}"),
            tr.wrap("permutations.multiply_out", P.multiply_out, f"n{n}"),
        )
        run = lambda f=identity, q=qualified: roundtrip(f, *q)  # noqa: E731

        def check(ck, out, f=identity, n=n):
            text, back = out
            ck.ok(text == ".".join(["(1)"] * n), f"identity/{n}: normal form {text[:60]!r}...")
            ck.ok(back == f, f"identity/{n}: does not multiply back to the identity")

        jobs.append(Job(f"identity/{n}", run, check, sample=False))

    one = P.Permutation((1,))
    for depth in sizes["alternating"]:
        nest = one
        for k in range(depth):
            nest = P.sharp(nest, one) if k % 2 == 0 else P.natural(nest, one)

        def check(ck, out, f=nest, depth=depth):
            text, back = out
            ck.ok(back == f, f"alternating/{depth}: does not multiply back")
            ck.seq(f"factor:alternating/{depth}", [text])

        jobs.append(Job(f"alternating/{depth}", lambda f=nest: roundtrip(f), check, sample=False))

    for i in range(sizes["composites"]):
        f = random_composite(rng, rng.randint(2, 20), P)

        def check(ck, out, f=f, i=i):
            text, back = out
            ck.ok(back == f, f"composite/{i}: {fmt_perm(f)} -> {text} multiplies out to {fmt_perm(back)}")

        jobs.append(Job(f"composite/{i}", lambda f=f: roundtrip(f), check, sample=False))

    def parse_format(text, alphabet, parse=parse, fmt_expr=fmt_expr):
        return fmt_expr(parse(text, alphabet))

    for n in sizes["chains"]:
        text = ".".join(["e"] * n)
        qualified = (
            tr.wrap("decorated_trees.parse_expr", decorated_trees.parse_expr, f"n{n}"),
            tr.wrap("decorated_trees.format_expr", decorated_trees.format_expr, f"n{n}"),
        )
        run = lambda t=text, q=qualified: parse_format(t, "e", *q)  # noqa: E731
        jobs.append(Job(f"chain/{n}", run, _same_text(f"chain/{n}", text), sample=False))

    for i in range(sizes["exprs"]):
        text = random_expr_text(rng, rng.randint(1, 40), "abc")
        jobs.append(Job(f"expr/{i}", lambda t=text: parse_format(t, "abc"),
                        _same_text(f"expr/{i}", text), sample=False))

    for i in range(sizes["morphisms"]):
        text = random_expr_text(rng, rng.randint(2, 40), "e")

        def run(text=text):
            x = parse(text, "e")
            a = alpha(x)
            return x, a, factorize(a), phi(rho(x)), leaf_signs(x)

        def check(ck, out, i=i):
            x, a, back, via_trees, signs = out
            ck.ok(via_trees == signs, f"morphism/{i}: phi(rho(x)) = {via_trees} but leaf signs are {signs}")
            ck.ok(a.degree == x.degree and back.tree == x.tree and set(back.labels) == {one},
                  f"morphism/{i}: alpha(x) = {a} does not factor back to x")

        jobs.append(Job(f"morphism/{i}", run, check, sample=False))
    return Workload(jobs)


def _same_text(name, text):
    def check(ck, out):
        ck.ok(out == text, f"{name}: {text[:60]!r} formats back as {out[:60]!r}")

    return check


# --- cli -----------------------------------------------------------------------------------


def cli_commands(small: bool) -> list[list[str]]:
    """The fixed part of the session; every outcome is pinned.  Requests whose
    documented outcome is planned to change (bound exceeded, vacuous orders
    or bounds, nesting past 300) are left out."""
    from duplexes import series

    if small:
        return (
            [["verify", "--check", c, "--order", "4"] for c in series.CHECKS]
            + [["count", "--sequence", s, "--max", "4"] for s in ("u", "d", "super-catalan", "catalan", "decorated")]
            + [["enumerate", "--structure", "tree", "--n", "4"],
               ["laws", "--structure", "perm", "--variety", "duplexes1", "--bound", "4"]]
        )
    return (
        [["verify", "--check", c] for c in series.CHECKS]
        + [["verify", "--check", c, "--order", "8"] for c in ("usformula", "desformula", "cor52", "dupl")]
        + [["count", "--sequence", s, "--max", "8"] for s in ("u", "d", "super-catalan", "catalan", "decorated")]
        + [
            ["enumerate", "--structure", "perm", "--n", "6"],
            ["enumerate", "--structure", "perm", "--n", "7", "--filter", "s2-indec"],
            ["enumerate", "--structure", "tree", "--n", "7"],
            ["enumerate", "--structure", "decorated", "--n", "6"],
            ["enumerate", "--structure", "binary", "--n", "8"],
            ["enumerate", "--structure", "cube", "--n", "10"],
            ["laws", "--structure", "perm", "--variety", "duplexes1", "--bound", "5"],
            ["laws", "--structure", "binary", "--variety", "duplexes1", "--bound", "7"],
            ["laws", "--structure", "cube", "--variety", "duplexes2", "--bound", "7"],
            ["laws", "--structure", "decorated", "--variety", "duplex", "--bound", "6"],
        ]
    )


def cli_items(code: int, stdout: str) -> list[str]:
    """Flatten a ``--json`` envelope into items, so a mismatch names the first
    differing result entry; the last item pins the exact bytes."""
    import hashlib

    doc = json.loads(stdout)
    result = doc["result"]
    items = [f"exit={code}", f"command={doc['command']}", "inputs=" + json.dumps(doc["inputs"], sort_keys=True)]
    if isinstance(result, list):
        items += [json.dumps(r) for r in result]
    elif isinstance(result, dict):
        items += [f"{k}={json.dumps(v)}" for k, v in result.items()]
    else:
        items.append(json.dumps(result))
    items.append("stdout-sha256=" + hashlib.sha256(stdout.encode()).hexdigest())
    return items


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cli(seed: int, tr, small: bool) -> Workload:
    from duplexes import binary_trees, cubes, decorated_trees, morphisms, permutations

    P, D = permutations, decorated_trees
    rng = random.Random(seed)
    env = cli_env()
    if tr.enabled:
        prefix = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
    else:
        prefix = [sys.executable, "-c", CLI_ENTRY]

    def invoke(argv):
        proc = subprocess.run(prefix + argv + ["--json"], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        if not tr.enabled:
            return proc.returncode, proc.stdout, proc.stderr
        if proc.returncode != 0:
            return proc.returncode, proc.stdout, proc.stderr
        doc = json.loads(proc.stdout)
        tr.adopt(doc["spans"])
        return doc["exit"], doc["stdout"], proc.stderr

    def pinned_check(key):
        def check(ck, out):
            code, stdout, stderr = out
            try:
                items = cli_items(code, stdout)
            except (ValueError, KeyError) as exc:
                ck.ok(False, f"{key}: exit {code}, unreadable stdout ({exc}): {stdout[:80]!r} {stderr[-200:]!r}")
                return
            ck.seq(key, items)

        return check

    def roundtrip_check(key, expect_result):
        def check(ck, out):
            code, stdout, stderr = out
            if code != 0:
                ck.ok(False, f"{key}: exit {code}: {stderr[-200:]!r}")
                return
            try:
                result = json.loads(stdout)["result"]
                message = expect_result(result)
            except Exception as exc:  # a malformed result is a failed job, not a crash
                message = f"result {stdout[:80]!r} unreadable: {type(exc).__name__}: {exc}"
            ck.ok(message is None, f"{key}: {message}")

        return check

    jobs = []
    for argv in cli_commands(small):
        key = "cli:" + " ".join(argv)
        jobs.append(Job(f"{argv[0]}/{' '.join(argv[1:])}", lambda a=argv: invoke(a), pinned_check(key)))

    def seeded(argv, expect_result):
        key = "cli:" + " ".join(argv)
        jobs.append(Job(f"{argv[0]}/{' '.join(argv[1:])}", lambda: invoke(argv), roundtrip_check(key, expect_result)))

    def expr_text():
        return random_expr_text(rng, rng.randint(2, 8 if small else 30), "e")

    def factors_rebuild(f, op, kind_ok):
        def expect(result):
            factors = [P.parse_permutation(t) for t in result]
            product = factors[0]
            for g in factors[1:]:
                product = op(product, g)
            if product != f:
                return f"factors {result} multiply to {P.format_permutation(product)}"
            if not all(kind_ok(g.images) for g in factors):
                return f"factors {result} are not all indecomposable"
            return None

        return expect

    def xi_images(images):
        n = len(images)
        return tuple(n + 1 - v for v in images)

    composite_leaves = (2, 4) if small else (4, 12)
    f = random_composite(rng, rng.randint(*composite_leaves), P)

    def expect_duplex(result, f=f):
        x = D.expr_from_machine((result["tree"], result["tag"], result["labels"]), P.parse_permutation)
        if P.multiply_out(x) != f:
            return f"normal form {result['expr']} does not multiply out to the input"
        if not all(is_doubly_indecomposable(g.images) for g in x.labels):
            return f"normal form {result['expr']} has a decomposable label"
        return None

    seeded(["factor", "--perm", P.format_permutation(f), "--mode", "duplex"], expect_duplex)
    f = random_composite(rng, rng.randint(*composite_leaves), P)
    seeded(["factor", "--perm", P.format_permutation(f), "--mode", "sharp"],
           factors_rebuild(f, P.sharp, is_sharp_indecomposable))
    f = random_composite(rng, rng.randint(*composite_leaves), P)
    seeded(["factor", "--perm", P.format_permutation(f), "--mode", "natural"],
           factors_rebuild(f, P.natural, lambda images: is_sharp_indecomposable(xi_images(images))))

    def expect_perm(text):
        # permutations are free over the doubly indecomposables: factoring
        # alpha(x) must give back the shape of x
        def expect(result):
            back = P.duplex_factorize(P.parse_permutation(result))
            got = D.format_expr(back, lambda _label: "e")
            return None if got == text else f"{result} factors as {got}, not {text}"

        return expect

    def expect_binary(text):
        signs = morphisms.leaf_sign_vector(D.parse_expr(text, "e"))

        def expect(result):
            got = morphisms.phi(binary_trees.parse_binary(result))
            return None if got == signs else f"phi({result}) = {got}, leaf signs are {signs}"

        return expect

    def expect_cube(text):
        want = cubes.format_cube(morphisms.phi(morphisms.rho(D.parse_expr(text, "e"))))
        return lambda result: None if result == want else f"{result} != phi(rho(x)) = {want}"

    for target, expect in (("perm", expect_perm), ("binary", expect_binary), ("cube", expect_cube)):
        text = expr_text()
        seeded(["eval", "--expr", text, "--target", target], expect(text))
    text = expr_text()
    seeded(["map", "--morphism", "alpha", "--input", text], expect_perm(text))
    text = expr_text()
    seeded(["map", "--morphism", "rho", "--input", text], expect_binary(text))
    text = expr_text()
    signs = cubes.format_cube(morphisms.leaf_sign_vector(D.parse_expr(text, "e")))
    tree_text = binary_trees.format_binary(morphisms.rho(D.parse_expr(text, "e")))
    seeded(["map", "--morphism", "phi", "--input", tree_text],
           lambda result, want=signs: None if result == want else f"{result} != leaf signs {want}")
    text = expr_text()
    seeded(["map", "--morphism", "leafsigns", "--input", text], expect_cube(text))

    def spawn_bare():
        # a bare interpreter, for the share of a command that is start-up
        spawn = tr.wrap("cli.spawn", subprocess.run)
        for _ in range(5):
            spawn([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=CLI_TIMEOUT_S)

    return Workload(jobs, in_process=False, traced_only=spawn_bare)
