"""Run one ``freechoice`` CLI command with layer-boundary spans recorded.

Usage: python3 bench/traced_cli.py SPAN_FILE CLI_ARG...

Behaves like ``python -m freechoice CLI_ARG...`` (same exit code, same
output files) and writes the command's spans to SPAN_FILE (``.npz``).
"""

import sys

import tracer


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Recorder()
    from freechoice import cli

    recorder.install()
    try:
        return recorder.wrap(cli.main, "cli.main")(argv)
    finally:
        recorder.write(span_file)


if __name__ == "__main__":
    raise SystemExit(main())
