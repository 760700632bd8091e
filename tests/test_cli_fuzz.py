"""The exit-code contract, fuzzed: random requests through ``cli.main``, in
process.  Every call ends within ``CALL_SECONDS`` with exit 0, 1, 2 or 3,
exit 1 (refuted) comes only from ``laws`` or ``verify``, exit 4 (internal
error) never occurs, and no traceback reaches stderr."""
import contextlib
import io
import os
import signal
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from duplexes import cli

# The per-call limit.  The largest requests within the bounds, such as
# ``count --sequence catalan --max 10000`` and ``verify --check fesvi --order
# 1200``, take about 2 s on Python 3.11.
CALL_SECONDS = 5

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")


class CallTimedOut(BaseException):
    """Raised by the alarm; not an ``Exception``, so ``cli.main`` cannot catch it."""


def _on_alarm(signum, frame):
    raise CallTimedOut(f"a call ran past {CALL_SECONDS} s")


def mostly(usual, other):
    # four draws in five from ``usual``
    return st.integers(0, 4).flatmap(lambda k: other if k == 4 else usual)


NOISE = st.one_of(
    st.sampled_from(
        [
            "-", "", "(1,1)", "(0)", "(" + "9" * 5000 + ")", "a.b", "e·e", "|", "(", ")", "e.*e", "e.e*e",
            "é.e", "\x00", "(|)", "e" * 40, "(" * 40 + "e" + ")" * 40, "(" * 40 + "|" + ")" * 40,
        ]
    ),
    st.text(max_size=30),
    st.text(alphabet="ea.*() |,0123456789", max_size=30),
)
INTEGERS = mostly(
    st.one_of(
        st.integers(min_value=-2, max_value=10),
        st.sampled_from([13, 14, 1200, 1201, 10_000, 10_001, 10**7, 2**63, 10**30]),
    ).map(str),
    st.one_of(st.integers().map(str), st.sampled_from(["9" * 5000, "٣", " 7 ", "1e3", "0x10", "½"]), NOISE),
)
PERMS = st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
    lambda images: "(" + ",".join(map(str, images)) + ")"
)
EXPRS = st.recursive(
    st.sampled_from(["e", "e", "e", "a"]),
    lambda inner: st.tuples(inner, st.sampled_from(".*"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
    max_leaves=12,
)
BINARY = st.recursive(st.just("|"), lambda inner: st.tuples(inner, inner).map("({0[0]}{0[1]})".format), max_leaves=12)


def choice(*values):
    return mostly(st.sampled_from(values), st.text(max_size=6))


OPTIONS = {  # subcommand -> option -> the strategy for its value
    "enumerate": {
        "--structure": choice("perm", "tree", "decorated", "binary", "cube"),
        "--n": INTEGERS,
        "--filter": choice("sharp-indec", "natural-indec", "s2-indec"),
    },
    "count": {"--sequence": choice("u", "d", "super-catalan", "catalan", "decorated"), "--max": INTEGERS},
    "factor": {"--perm": mostly(PERMS, NOISE), "--mode": choice("sharp", "natural", "duplex")},
    "eval": {"--expr": mostly(EXPRS, NOISE), "--target": choice("perm", "binary", "cube")},
    "map": {"--morphism": choice("alpha", "rho", "phi", "leafsigns"), "--input": mostly(st.one_of(EXPRS, BINARY), NOISE)},
    "laws": {
        "--structure": choice("perm", "decorated", "binary", "cube"),
        "--variety": choice("duplex", "duplexes1", "duplexes2", "dimonoid"),
        "--bound": INTEGERS,
    },
    "verify": {"--check": choice(*cli._CHECKS), "--order": INTEGERS},
}
TEXT_OPTIONS = {"--perm", "--expr", "--input"}  # a value "-" reads standard input
STDIN = st.one_of(PERMS, EXPRS, BINARY, NOISE, st.text())


@st.composite
def requests(draw):
    command = draw(mostly(st.sampled_from(sorted(OPTIONS)), st.text(max_size=6)))
    options = OPTIONS.get(command, {})
    argv = [command]
    # each option present (a required one nearly always) or left out, in any order
    for name in draw(st.permutations(sorted(options))):
        if draw(st.integers(0, 9)) < (5 if name in ("--filter", "--order") else 9):
            stdin = name in TEXT_OPTIONS and draw(st.integers(0, 3)) == 3
            argv += [name, "-" if stdin else draw(options[name])]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 9)) == 9:
        argv.append(draw(st.sampled_from(["--bogus", "-h", "--json", "-"])))
    return argv


def run(argv, stdin):
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        with open(os.devnull, "w") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(sys, "stdin", io.StringIO(stdin)):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


@settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(requests(), STDIN)
# the largest requests within the bounds, and the first ones past them
@example(["count", "--sequence", "catalan", "--max", "10000", "--json"], "")
@example(["count", "--sequence", "super-catalan", "--max", "1200"], "")
@example(["verify", "--check", "fesvi", "--order", "1200"], "")
@example(["verify", "--check", "supercatalan", "--order", "1200", "--json"], "")
@example(["verify", "--check", "ass", "--order", "13"], "")
@example(["count", "--sequence", "catalan", "--max", "10001"], "")
@example(["verify", "--check", "ass", "--order", "14"], "")
@example(["eval", "--target", "cube", "--expr", "-"], "(e.e)*e\n")
def test_every_request_keeps_the_exit_code_contract(argv, stdin):
    code, err = run(argv, stdin)
    assert code in (cli.EXIT_OK, cli.EXIT_REFUTED, cli.EXIT_USAGE, cli.EXIT_BOUND), (code, err)
    assert code != cli.EXIT_REFUTED or argv[0] in ("laws", "verify"), err
    assert "Traceback" not in err
