"""Traced CLI entry point: python bench/traced_cli.py SPANS_OUT CLI_ARGS...

Imports the CLI, installs the span wrappers, runs ``stabhom.cli.main``
on CLI_ARGS and writes the spans to SPANS_OUT as JSON.  The exit code is
the CLI's own.
"""
import sys

import stabhom.cli

from tracer import Recorder


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install()
    try:
        return stabhom.cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main())
