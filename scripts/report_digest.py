#!/usr/bin/env python3
"""Print one digest per benchmark workload of the answers a source tree gives.

For each seed it builds the workload's round with the tree's own
``perfbench/workloads.py`` and runs it on the tree's ``src/``:

* ``kernel``: every ``run_job`` report, minus ``timings``;
* ``structures``: every task's answer, from the tree's ``perfbench/tasks.py``;
* ``cli``: every ``noether`` CLI report, minus ``timings``, with its exit code;
* ``acceptance``: each acceptance criterion's name, outcome and detail, minus
  its ``seconds``.  It depends on no seed, so it runs once, and it is left
  out unless named: it takes about 3 s.
* ``finite``: every ``run_job`` report, minus ``timings``, of ``ideal
  enumerate-ideals``, ``open enumerate-spec`` and ``digraph-validate
  count-space`` over Z/2 ... Z/30 and four F_p[x]/(f).  No benchmark
  workload runs these, so this is their parity check; like ``acceptance``
  it runs once and only when named.

Each line gives the workload, the number of answers and the SHA-256 of
their JSON.  Two trees answer alike exactly when they print the same lines,
so answer parity between two checkouts is one run on each.  Nothing is
written into the tree: no bytecode is cached.  ``--workloads`` picks some
of the five, in their order: ``--workloads kernel`` checks the kernel's
answers without the CLI processes, and ``--workloads acceptance`` replaces
comparing two runs of ``noether suite`` by hand.

Usage:
    python3 scripts/report_digest.py TREE [--seeds 1 2 3] [--tiny]
        [--workloads kernel structures cli acceptance finite]
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys


def _without_timings(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "timings"}


def kernel_answers(jobs):
    import noether as nt

    return [_without_timings(nt.run_job(nt.JobSpec(job["command"], job["payload"])).as_dict())
            for job in jobs]


def structures_answers(jobs):
    import tasks

    return [tasks.TASKS[job["kind"]](job["args"]) for job in jobs]


def cli_answers(jobs, src):
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    answers = []
    for job in jobs:
        done = subprocess.run(
            [sys.executable, "-m", "noether.cli", job["command"], *job.get("argv", ["-"])],
            input=json.dumps(job["payload"]) if "payload" in job else "",
            capture_output=True, text=True, env=env, timeout=300)
        try:
            report = _without_timings(json.loads(done.stdout))
        except json.JSONDecodeError:
            report = {"stdout": done.stdout}
        answers.append({"exit": done.returncode, "report": report})
    return answers


def acceptance_answers():
    from noether.acceptance import run_acceptance

    return [[r.name, r.passed, r.detail] for r in run_acceptance()]


# F2[x]/(x^2), F3[x]/(x^2), F2[x]/(x^2 + x) and F4, as modulus coefficients.
FINITE_RINGS = [{"zmod": n} for n in range(2, 31)] + [
    {"gf_quotient": {"p": p, "modulus": f}}
    for p, f in ((2, [0, 0, 1]), (3, [0, 0, 1]), (2, [0, 1, 1]), (2, [1, 1, 1]))]
FINITE_OPS = [("ideal", "enumerate-ideals"), ("open", "enumerate-spec"),
              ("digraph-validate", "count-space")]


def finite_answers():
    return kernel_answers([{"command": command, "payload": {"op": op, "finite_ring": ring}}
                           for ring in FINITE_RINGS for command, op in FINITE_OPS])


WORKLOADS = ["kernel", "structures", "cli", "acceptance", "finite"]
ONCE = {"acceptance": acceptance_answers, "finite": finite_answers}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", help="root of a checkout, with src/ and perfbench/")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--tiny", action="store_true", help="the smoke-test rounds")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS[:3])
    args = parser.parse_args()

    tree = os.path.abspath(args.tree)
    src = os.path.join(tree, "src")
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, os.path.join(tree, "perfbench")]
    import workloads

    run = {"kernel": kernel_answers, "structures": structures_answers,
           "cli": lambda jobs: cli_answers(jobs, src)}
    for workload in WORKLOADS:
        if workload not in args.workloads:
            continue
        if workload in ONCE:
            answers = [ONCE[workload]()]
        else:
            answers = [run[workload](workloads.build(workload, seed, tiny=args.tiny))
                       for seed in args.seeds]
        text = json.dumps(answers, sort_keys=True)
        count = sum(map(len, answers))
        print(f"{workload:<10} {count:>4} {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
