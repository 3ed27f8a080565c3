"""The timed process of one benchmark run.

    python3 perfbench/worker.py --inputs FILE --out FILE --seconds S
                                [--trace] [--setup-only]

Reads a round of jobs written by ``run.py``, runs whole rounds for about
``--seconds`` (at least one round, and no round expected to end later),
and writes per-job latencies and answers to ``--out``.  For ``kernel``
and ``structures`` it imports ``noether`` (from ``src/`` of the checkout,
which ``run.py`` puts on ``PYTHONPATH``) and nothing else outside the
standard library.  For ``cli`` it imports
nothing of the program: every job is a fresh ``python -m noether.cli``
process.

With ``--trace`` it first runs one untraced round, then installs the
wrappers of ``tracer.py`` and runs traced rounds; the spans go to
``<out>.spans`` (for ``cli``, each CLI process writes its own, see
``cli_shim.py``).  Throughout, ``calibrate.Sampler`` probes the
machine's speed.  With ``--setup-only`` it prints its set-up time
(``import noether``, and for ``kernel`` and ``structures`` building the
jobs) and a speed probe (``calibrate.py``), and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))


def _kernel_runner(jobs):
    import noether as nt

    specs = [nt.JobSpec(job["command"], job["payload"]) for job in jobs]

    def run(k):
        report = nt.run_job(specs[k])
        return {"status": report.status, "result": report.result}

    return run


def _structures_runner(jobs):
    import tasks

    funcs = [tasks.TASKS[job["kind"]] for job in jobs]
    args = [job["args"] for job in jobs]

    def run(k):
        return funcs[k](args[k])

    return run


def _cli_runner(jobs, trace_dir=None):
    env = dict(os.environ)
    counter = [0]

    def run(k):
        job = jobs[k]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "noether.cli"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py")]
            counter[0] += 1
            env["PERFBENCH_SPANS"] = os.path.join(trace_dir, f"cli-{counter[0]}.spans")
        cmd += [job["command"]] + job.get("argv", ["-"])
        stdin = json.dumps(job["payload"]) if "payload" in job else ""
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              env=env, timeout=120)
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return {"exit": proc.returncode, "error": proc.stderr[-2000:]}
        return {"exit": proc.returncode, "status": report.get("status"),
                "result": report.get("result")}

    return run


def run_rounds(run, n_jobs: int, seconds: float, results: list):
    """Whole rounds, at least one, while the next round is expected to end
    within ``seconds`` (it takes as long as the last); returns their durations.

    Appends ``[job, start, end, status, answer]`` to ``results``."""
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started + rounds[-1] <= seconds:
        round_start = time.perf_counter()
        for k in range(n_jobs):
            t0 = time.perf_counter()
            try:
                out, status = run(k), "ok"
            except Exception as exc:  # a job error is a failed job, not a crash
                out, status = f"{type(exc).__name__}: {exc}", "error"
            results.append([k, t0, time.perf_counter(), status, out])
        rounds.append(time.perf_counter() - round_start)
    return rounds


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    workload, jobs = inputs["workload"], inputs["jobs"]

    import_s = None
    if workload != "cli" or args.setup_only:
        t0 = time.perf_counter()
        import noether  # noqa: F401  (the set-up being measured)
        import_s = time.perf_counter() - t0
    if workload == "kernel":
        run = _kernel_runner(jobs)
    elif workload == "structures":
        run = _structures_runner(jobs)
    else:
        run = _cli_runner(jobs)
    if args.setup_only:
        setup_s = import_s if workload == "cli" else time.perf_counter() - started
        print(json.dumps({"setup_s": setup_s, "probe_s": calibrate.probe()}))
        return 0

    out = {"import_s": import_s}
    results: list = []
    with calibrate.Sampler() as sampler:
        if not args.trace:
            out["round_s"] = run_rounds(run, len(jobs), args.seconds, results)
        else:
            from tracer import Tracer

            out["untraced_round_s"] = run_rounds(run, len(jobs), 0, results)
            tracer = Tracer()
            if workload == "cli":
                run = _cli_runner(jobs, trace_dir=os.path.dirname(args.out))
            else:
                tracer.install()
            try:
                out["round_s"] = run_rounds(tracer.timed("bench.job", run), len(jobs),
                                            args.seconds, results)
            finally:
                tracer.uninstall()
            tracer.dump(args.out + ".spans")
    out["samples"] = sampler.samples
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    out["results"] = results
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
