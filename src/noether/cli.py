"""Command-line entry point.

One job per invocation: a subcommand plus a JSON payload (file path, ``-``
for stdin, or convenience flags for the simple commands).  Output is JSON
by default or an aligned-text rendering with ``--text``; the exit code is
0 for pass, 1 for a failed property, 2 for parse/schema problems, and 3
for capability or resource limits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .errors import ParseError
from .jobs import COMMANDS, EXIT_PARSE, SCHEMAS, decode_object, load_job, run_job

# Each convenience flag writes one payload key: {command: ((flag, key, type, choices), ...)}.
FLAGS = {
    "cech-projective": (("--n", "n", int, None), ("--d", "d", int, None)),
    "etale": (("--depth", "depth", int, None), ("--field", "field", str, None),
              ("--exponent-rule", "rule", str, ("power", "literal")),
              ("--op", "op", str, tuple(SCHEMAS["etale"]))),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a ParseError, printed as every other one is."""
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noether",
        description="Sheaves of ideals as finite digraphs: kernel, "
                    "topology, cohomology, injectives, and the cover tower.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("payload", nargs="?", default=None,
                         help="payload JSON file, or '-' for stdin")
        cmd.add_argument("--text", dest="fmt", action="store_const",
                         const="text", default="json")
        for flag, key, kind, choices in FLAGS.get(name, ()):
            cmd.add_argument(flag, dest=key, type=kind, choices=choices)
    return parser


def _load_payload(args: argparse.Namespace) -> dict:
    payload = {}
    if args.payload is not None:
        try:
            text = (sys.stdin.read() if args.payload == "-"
                    else Path(args.payload).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read payload {args.payload!r}: {exc}") from exc
        payload = decode_object(text, "payload")
    for _, key, _, _ in FLAGS.get(args.command, ()):
        if getattr(args, key) is not None:
            payload[key] = getattr(args, key)
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        job = load_job(args.command, _load_payload(args))
    except ParseError as exc:
        print(json.dumps({"status": "error", "error": str(exc)}, indent=2))
        return EXIT_PARSE
    report = run_job(job)
    print(report.to_json() if args.fmt == "json" else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
