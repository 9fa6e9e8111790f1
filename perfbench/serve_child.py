"""Run ``qrag`` command-line arguments with the span recorder installed.

Usage: ``python serve_child.py <spans.jsonl> serve --index DIR --addr HOST:PORT``

The traced ``serve`` run starts the server through this launcher. On SIGINT
the server stops, and the spans recorded in this process (the index load and
one ``service.SearchHandler.do_POST`` root per search request) are written
to the given file.
"""

from __future__ import annotations

import sys
from pathlib import Path

import spans
from qrag import cli


def main(argv: list[str]) -> int:
    out, args = Path(argv[0]), argv[1:]
    rec = spans.Recorder()
    spans.install(rec)
    rec.active = True
    try:
        return cli.main(args)
    finally:
        rec.active = False
        rec.write(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
