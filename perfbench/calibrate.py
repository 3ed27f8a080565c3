"""Machine-speed probe for normalizing the benchmark's timings.

The shared machines the benchmark runs on change speed by up to 40 % for
stretches of seconds to minutes, so raw times of the same code disagree
between runs far more than any useful regression bound.  The timed process
therefore runs ``probe`` every half second: a fixed piece of the benchmark's
own code with the program's kind of work (sparse polynomial products over
``Fraction`` coefficients, a max with a sort key) that no change to the
program can alter.  A job's latency is scaled by ``REFERENCE_S / probe
time``, i.e. reported in seconds at the speed where the probe takes
``REFERENCE_S``.  A faster program moves the scaled time; a faster machine
moves the probe too and cancels.  ``Sampler`` runs the probe from a timer
signal, so that a job of several seconds is sampled while it runs.

On the machine the benchmark was tuned on, the probe took 2.7 to 5.1 ms
as the speed changed; in a 90 s test, 3 s windows of the same jobs spread
by 3 % scaled against 20 % unscaled (interquartile range over median).
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction
from typing import List, Tuple

REFERENCE_S = 0.004

_rng = random.Random(0)
_A = {tuple(_rng.randrange(4) for _ in range(3)): Fraction(_rng.randint(1, 9), _rng.randint(1, 9))
      for _ in range(14)}
_B = {tuple(_rng.randrange(4) for _ in range(3)): Fraction(_rng.randint(1, 9), _rng.randint(1, 9))
      for _ in range(14)}


def _key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _work():
    out = {}
    for _ in range(3):
        for ma, ca in _A.items():
            for mb, cb in _B.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                v = out.get(m, 0) + ca * cb
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        max(out, key=_key)
    return out


def probe(repeats: int = 3) -> float:
    """Seconds the fixed work takes now: the least of ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    """Probes the machine's speed every ``every`` seconds while active.

    The probe runs in a ``SIGALRM`` handler, between two bytecodes of
    whatever the process is doing, and ``samples`` collects ``(start, end,
    probe seconds)``; a job's own time excludes the probes inside it.
    """

    def __init__(self, every: float = 0.5):
        self.every = every
        self.samples: List[Tuple[float, float, float]] = []

    def _tick(self, *_):
        start = time.perf_counter()
        seconds = probe(repeats=2)
        self.samples.append((start, time.perf_counter(), seconds))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        return False


def scaled(jobs: List[Tuple[float, float]], samples: List[Tuple[float, float, float]]
           ) -> List[float]:
    """Each job's time at the reference speed.

    ``jobs`` are (start, end) pairs.  A job's own time is its span minus the
    probes inside it; its speed is the mean probe inside it or, for a job
    with none, the mean of the last probe before and the first after it.
    """
    out = []
    i = 0
    for start, end in jobs:
        while i + 1 < len(samples) and samples[i + 1][1] <= start:
            i += 1
        inside = [s for s in samples[i:] if start <= s[0] and s[1] <= end]
        if inside:
            speed = sum(s[2] for s in inside) / len(inside)
        else:
            after = next((s for s in samples[i:] if s[0] >= end), samples[-1])
            speed = (samples[i][2] + after[2]) / 2
        own = end - start - sum(s[1] - s[0] for s in inside)
        out.append(own * REFERENCE_S / speed)
    return out
