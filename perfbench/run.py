"""The noether benchmark: one command, three workloads, end to end and by layer.

    python3 perfbench/run.py --workload {kernel,structures,cli} --seed N
                             --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from ``src/``
of that checkout and nothing else, and exits with code 2 if there is none.

One run:

1. builds the workload's round of jobs from ``--seed`` (``workloads.py``);
2. computes the reference answers in a separate process
   (``reference.py``), cached in ``.perfbench/`` per round;
3. measures set-up in five fresh processes and takes the median;
4. starts the timed process (``worker.py``), which runs whole rounds,
   one job at a time (a closed loop with one client), for about
   ``--seconds``: at least one round, and no round expected to end later;
5. checks every answer against its reference and prints the metrics.

Timings are scaled to a reference machine speed with the probe of
``calibrate.py``, which the timed process runs every half second; the
text lines give the unscaled totals too.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (``tracer.py``), whose span dumps stay in
``.perfbench/spans-<workload>/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it say the same for a reader.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("kernel", "structures", "cli")
SETUP_SAMPLES = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
DEADLINE_S = 170.0
LAYER_SELF = ("poly", "groebner", "fields", "rings", "univar", "topology",
              "digraph", "finite", "baer", "cech", "tower", "jobs", "parse")


class BenchError(Exception):
    """A step of the run failed; the message says which."""


def tail_percentile(round_size: int) -> float:
    """Highest ladder percentile with at least 10 samples of one round beyond it."""
    return next(q for q in TAIL_LADDER if round_size * (1 - q / 100) >= 10
                or q == TAIL_LADDER[-1])


def percentile(values: List[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-th percentile: a mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) distribution of the
    sample quantile.  One order statistic of a hundred jobs jumps whenever
    two neighbours swap; the weighted mean moves smoothly."""
    ordered, n, p = sorted(values), len(values), q / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # Beta CDF at i/n by the midpoint rule on a fine grid.
    grid = 4000
    cdf, acc, step = [0.0], 0.0, 1.0 / grid
    for j in range(grid):
        t = (j + 0.5) * step
        acc += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) * step
        cdf.append(acc)
    at = [cdf[round(i * grid / n)] for i in range(n + 1)]
    return sum((at[i + 1] - at[i]) * x for i, x in enumerate(ordered)) / at[-1]


def _run(cmd: List[str], env: Dict, deadline: float, what: str) -> str:
    """Run a child in its own process group; on timeout kill the whole group
    (the cli worker's own children too) and wait for it."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for {what}")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{what} timed out") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {stderr[-2000:]}")
    return stdout


def references(inputs_path: str, refs_path: str, env: Dict, deadline: float) -> List:
    if not os.path.exists(refs_path):
        tmp = refs_path + ".tmp"
        _run([sys.executable, os.path.join(HERE, "reference.py"), inputs_path, tmp],
             env, deadline, "reference process")
        os.replace(tmp, refs_path)
    with open(refs_path, encoding="utf-8") as fh:
        return json.load(fh)


def setup_samples(inputs_path: str, env: Dict, deadline: float) -> List[float]:
    """Scaled set-up times of fresh timed processes (``worker.py --setup-only``)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--inputs", inputs_path,
           "--setup-only"]
    out = []
    for _ in range(SETUP_SAMPLES):
        sample = json.loads(_run(cmd, env, deadline, "set-up probe"))
        out.append(sample["setup_s"] * calibrate.REFERENCE_S / sample["probe_s"])
    return out


def scaled_latencies(run: Dict) -> List[float]:
    """Every job's time at the reference speed (``calibrate.scaled``)."""
    return calibrate.scaled([(r[1], r[2]) for r in run["results"]], run["samples"])


def layer_metrics(run: Dict, round_size: int, run_dir: str) -> Dict[str, Dict]:
    """Per-layer metrics, per round, from the span dumps of a traced run."""
    dumps = sorted(glob.glob(os.path.join(run_dir, "*.spans")))
    self_s = {layer: 0.0 for layer in tracer.LAYERS}
    counts = {c: 0 for c in tracer.COUNTERS}
    nf_under = nf_zero = 0
    imports = []
    for path in dumps:
        header, names, parents, starts, ends = tracer.load(path)
        per_layer = tracer.layer_self_times(
            tracer.self_times(header["names"], names, parents, starts, ends))
        for layer, seconds in per_layer.items():
            self_s[layer] += seconds
        for name, value in header["counts"].items():
            counts[name] += value
        nf_under += header["nf_under_basis"][0]
        nf_zero += header["nf_under_basis"][1]
        if "import_s" in header:
            imports.append(header["import_s"])
    rounds = len(run["round_s"])
    metrics: Dict[str, Dict] = {}
    for name in tracer.COUNTERS:
        metrics[name] = {"value": counts[name] / rounds, "unit": "count"}
    metrics["groebner.nf_zero_share"] = {
        "value": nf_zero / nf_under if nf_under else 0.0, "unit": "ratio"}
    for layer in LAYER_SELF:
        metrics[f"{layer}.self_s"] = {"value": self_s[layer] / rounds, "unit": "s"}
    if not imports:
        imports = [run["import_s"]]
    metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    latencies = scaled_latencies(run)
    untraced = sum(latencies[:round_size])
    traced = sum(latencies[round_size:]) / rounds
    metrics["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
    return metrics


def job_latencies(run: Dict, round_size: int) -> List[float]:
    """Scaled latency of each job of the round: the mean over its runs."""
    total, runs = [0.0] * round_size, [0] * round_size
    for (k, *_), seconds in zip(run["results"], scaled_latencies(run)):
        total[k] += seconds
        runs[k] += 1
    return [t / n for t, n in zip(total, runs)]


def end_to_end_metrics(run: Dict, setups: List[float], round_size: int) -> Dict[str, Dict]:
    latencies = job_latencies(run, round_size)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "jobs_per_s": {"value": len(run["results"]) / sum(scaled_latencies(run)),
                       "unit": "1/s"},
        "job_p50_s": {"value": percentile(latencies, 50), "unit": "s"},
        "job_tail_s": {"value": percentile(latencies, tail_percentile(round_size)),
                       "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "noether", "__init__.py")):
        print(f"perfbench: no program at {src}/noether", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    jobs = workloads.build(args.workload, args.seed, tiny=args.tiny)
    inputs = {"workload": args.workload, "jobs": jobs}
    text = json.dumps(inputs, sort_keys=True)
    key = hashlib.sha256(text.encode()).hexdigest()[:16]
    cache = os.path.join(root, ".perfbench")
    os.makedirs(cache, exist_ok=True)
    inputs_path = os.path.join(cache, f"{args.workload}-{key}.inputs.json")
    with open(inputs_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    run_dir = os.path.join(cache, f"run-{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        refs = references(inputs_path, os.path.join(cache, f"{args.workload}-{key}.refs.json"),
                          env, deadline)
        setups = [] if args.trace else setup_samples(inputs_path, env, deadline)
        out_path = os.path.join(run_dir, "worker.json")
        _run([sys.executable, os.path.join(HERE, "worker.py"), "--inputs", inputs_path,
              "--out", out_path, "--seconds", str(args.seconds)]
             + (["--trace"] if args.trace else []), env, deadline, "timed process")
        with open(out_path, encoding="utf-8") as fh:
            run = json.load(fh)
        wrong = [k for k, _, _, status, out in run["results"]
                 if status != "ok" or not reference.check(args.workload, jobs[k], out, refs[k])]
        if args.trace:
            metrics = layer_metrics(run, len(jobs), run_dir)
            kept = os.path.join(cache, f"spans-{args.workload}")
            shutil.rmtree(kept, ignore_errors=True)
            os.replace(run_dir, kept)
        else:
            metrics = end_to_end_metrics(run, setups, len(jobs))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = len(run["results"]), len(wrong)
    rounds = len(run["round_s"])
    print(f"perfbench {args.workload} seed={args.seed}: {rounds} round(s) of "
          f"{len(jobs)} jobs, {attempted} attempted, {failed} failed or wrong")
    for k in sorted(set(wrong))[:5]:
        print(f"  wrong: job {k} {json.dumps(jobs[k])[:200]}")
    print(f"  failed_share {failed / attempted:.6g} (of {attempted} jobs)")
    if not args.trace:
        latencies = job_latencies(run, len(jobs))
        beyond = sum(1 for x in latencies if x > metrics["job_tail_s"]["value"])
        raw = sum(r[2] - r[1] for r in run["results"])
        print(f"  job_tail_s is p{tail_percentile(len(jobs)):g} of {len(jobs)} job "
              f"latencies, each the mean of its {rounds} run(s) ({beyond} beyond it); "
              f"setup_s is the median of {len(setups)} set-ups")
        print(f"  times are scaled to a {calibrate.REFERENCE_S * 1e3:g} ms speed probe; "
              f"unscaled, the jobs took {raw:.6g} s and the probe "
              f"{statistics.median(p for _, _, p in run['samples']) * 1e3:.4g} ms "
              f"(median of {len(run['samples'])})")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
