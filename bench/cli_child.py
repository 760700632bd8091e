"""Traced stand-in for the ``duplexes`` console script.

Times ``import duplexes.cli`` and ``main(argv)`` separately, records spans
around the ``series`` functions the CLI reaches, and prints one JSON line
``{"exit", "stdout", "spans"}`` in place of the CLI's own stdout.

    python3 bench/cli_child.py verify --check ass --json
"""
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import duplexes.cli as cli
        from duplexes import series

    # module attributes, so calls from inside the package are caught too
    verify, from_counts = series.verify_identity, series.from_counts

    def traced_verify(name, order=None):
        with tracer.span("series.verify_identity", name):
            return verify(name, order)

    def traced_from_counts(source, order, alphabet_size=1):
        with tracer.span("series.from_counts", source):
            return from_counts(source, order, alphabet_size)

    series.verify_identity, series.from_counts = traced_verify, traced_from_counts
    out = io.StringIO()
    with contextlib.redirect_stdout(out), tracer.span("cli.main", argv[0] if argv else None):
        code = cli.main(argv)
    print(json.dumps({"exit": code, "stdout": out.getvalue(), "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
