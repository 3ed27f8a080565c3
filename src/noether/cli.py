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

from .config import Budgets
from .errors import ParseError
from .jobs import COMMANDS, EXIT_PARSE, SCHEMAS, JobSpec, decode_object, run_job


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noether",
        description="Sheaves of ideals as finite digraphs: kernel, "
                    "topology, cohomology, injectives, and the cover tower.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("payload", nargs="?", default=None,
                         help="payload JSON file, or '-' for stdin")
        cmd.add_argument("--json", dest="fmt", action="store_const",
                         const="json", default="json")
        cmd.add_argument("--text", dest="fmt", action="store_const",
                         const="text")
        if name == "cech-projective":
            cmd.add_argument("--n", type=int)
            cmd.add_argument("--d", type=int)
        if name == "etale":
            cmd.add_argument("--depth", type=int)
            cmd.add_argument("--field", default=None,
                             help="q or fp:<p>")
            cmd.add_argument("--exponent-rule", dest="rule",
                             choices=("power", "literal"))
            cmd.add_argument("--op", default=None, choices=tuple(SCHEMAS["etale"]))
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
    if args.command == "cech-projective":
        if getattr(args, "n", None) is not None:
            payload["n"] = args.n
        if getattr(args, "d", None) is not None:
            payload["d"] = args.d
    if args.command == "etale":
        if getattr(args, "depth", None) is not None:
            payload["depth"] = args.depth
        if getattr(args, "field", None):
            payload["field"] = args.field
        if getattr(args, "rule", None):
            payload["rule"] = args.rule
        if getattr(args, "op", None):
            payload["op"] = args.op
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = _load_payload(args)
        job = JobSpec(args.command, payload, Budgets.from_env())
    except ParseError as exc:
        print(json.dumps({"status": "error", "error": str(exc)}, indent=2))
        return EXIT_PARSE
    report = run_job(job)
    print(report.to_json() if args.fmt == "json" else report.to_text())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
