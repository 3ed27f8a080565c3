"""The scripts under ``scripts/`` run as programs against the source tree
and print what their docstrings promise."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def rows(stdout):
    return [line.split() for line in stdout.splitlines()[1:]]


def test_count_digraphs():
    done = run_script("count_digraphs.py", "--max-n", "6")
    assert done.returncode == 0, done.stderr
    counts = {row[0]: int(row[1]) for row in rows(done.stdout)}
    assert list(counts) == ["Z/2", "Z/3", "Z/4", "Z/5", "Z/6"]
    assert (counts["Z/4"], counts["Z/6"]) == (3, 9)


def test_cech_table_euler_characteristic():
    done = run_script("cech_table.py", "--n", "1", "--dmin", "-3", "--dmax", "3")
    assert done.returncode == 0, done.stderr
    table = [list(map(int, row)) for row in rows(done.stdout)]
    assert [row[0] for row in table] == list(range(-3, 4))
    for d, h0, h1, euler in table:
        assert euler == h0 - h1 == d + 1


def test_run_tower_power_rule():
    done = run_script("run_tower.py", "--depth", "2", "--rule", "power")
    assert done.returncode == 0, done.stderr
    assert [row[:4] for row in rows(done.stdout)] == [
        ["Q", "power", "2", "True"], ["F5", "power", "2", "True"]]


def test_report_digest_prints_one_line_per_workload():
    done = run_script("report_digest.py", str(ROOT), "--tiny", "--seeds", "1")
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [(row[0], row[1]) for row in lines] == [("kernel", "9"), ("structures", "16"),
                                                   ("cli", "10")]
    assert all(len(row[2]) == 64 and int(row[2], 16) >= 0 for row in lines)
    other = run_script("report_digest.py", str(ROOT), "--tiny", "--seeds", "2")
    assert other.returncode == 0, other.stderr
    assert other.stdout.splitlines()[0].split()[2] != lines[0][2]
    # --workloads keeps the named ones, in the script's order, with the same digests.
    some = run_script("report_digest.py", str(ROOT), "--tiny", "--seeds", "1",
                      "--workloads", "structures", "kernel")
    assert some.returncode == 0, some.stderr
    assert [line.split() for line in some.stdout.splitlines()] == lines[:2]


def test_report_digest_acceptance_runs_once_when_named():
    done = run_script("report_digest.py", str(ROOT), "--seeds", "1", "2",
                      "--workloads", "acceptance")
    assert done.returncode == 0, done.stderr
    [(name, count, digest)] = [line.split() for line in done.stdout.splitlines()]
    assert (name, count, len(digest)) == ("acceptance", "8", 64)


def test_report_digest_finite_runs_once_after_the_seeded_workloads():
    done = run_script("report_digest.py", str(ROOT), "--tiny", "--seeds", "1", "2",
                      "--workloads", "finite", "kernel")
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    # Three ops over Z/2 ... Z/30 and four F_p[x]/(f), once for both seeds.
    assert [(row[0], row[1]) for row in lines] == [("kernel", "18"), ("finite", "99")]
    assert len(lines[1][2]) == 64
