#!/usr/bin/env python3
"""Print one digest per benchmark workload of the answers a source tree gives.

For each seed it builds the workload's round with the tree's own
``perfbench/workloads.py`` and runs it on the tree's ``src/``:

* ``kernel``: every ``run_job`` report, minus ``timings``;
* ``structures``: every task's answer, from the tree's ``perfbench/tasks.py``;
* ``cli``: every ``noether`` CLI report, minus ``timings``, with its exit code.

Each line gives the workload, the number of answers and the SHA-256 of
their JSON.  Two trees answer alike exactly when they print the same lines,
so answer parity between two checkouts is one run on each.  Nothing is
written into the tree: no bytecode is cached.  ``--workloads`` picks some
of the three, in their order: ``--workloads kernel`` checks the kernel's
answers without the CLI processes.

Usage:
    python3 scripts/report_digest.py TREE [--seeds 1 2 3] [--tiny]
        [--workloads kernel structures cli]
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


WORKLOADS = ["kernel", "structures", "cli"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", help="root of a checkout, with src/ and perfbench/")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--tiny", action="store_true", help="the smoke-test rounds")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = parser.parse_args()

    tree = os.path.abspath(args.tree)
    src = os.path.join(tree, "src")
    sys.dont_write_bytecode = True
    sys.path[:0] = [src, os.path.join(tree, "perfbench")]
    import workloads

    run = {"kernel": kernel_answers, "structures": structures_answers,
           "cli": lambda jobs: cli_answers(jobs, src)}
    for workload, answer in run.items():
        if workload not in args.workloads:
            continue
        answers = [answer(workloads.build(workload, seed, tiny=args.tiny))
                   for seed in args.seeds]
        text = json.dumps(answers, sort_keys=True)
        count = sum(map(len, answers))
        print(f"{workload:<10} {count:>4} {hashlib.sha256(text.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
