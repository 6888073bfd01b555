"""Traced CLI entry: ``python -X importtime perfbench/cli_shim.py SNAPSHOT.json [mmopam args]``.

Imports the CLI exactly as ``python -m mmopam.cli`` would, installs the span
wrappers, runs ``mmopam.cli.main`` (wrapped as the ``cli.main`` span), and writes
the aggregated snapshot and the spans next to SNAPSHOT.json before exiting
with the command's exit code.
"""

import sys

import mmopam.cli  # first, so -X importtime sees the same import as the real CLI

import json  # noqa: E402

import spans  # noqa: E402


def _main() -> int:
    out = sys.argv[1]
    argv = sys.argv[2:]
    sys.argv = ["mmopam", *argv]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        code = mmopam.cli.main(argv)  # wrapped by install() as the cli.main span
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
        tracer.write(out.replace(".json", ".spans.tsv.gz"))
    return code


if __name__ == "__main__":
    sys.exit(_main())
