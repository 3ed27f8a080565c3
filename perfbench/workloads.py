"""Seeded job lists for the three benchmark workloads.

Everything here is plain data built from ``random.Random(seed)``; nothing
imports the program.  A workload is one *round*: an ordered list of jobs
that the timed process runs again and again.  The same seed always gives
the same round.

* ``kernel``: ``groebner`` and ``ideal`` jobs for ``noether.jobs.run_job``.
* ``structures``: library tasks (see ``tasks.py``) that reuse objects.
* ``cli``: one ``noether <subcommand>`` subprocess per job.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

FIELDS = ("q", "fp:32003")
VARS3 = ["x", "y", "z"]


def field_modulus(field: str) -> int:
    return int(field[3:]) if field.startswith("fp:") else 0


# ---------------------------------------------------------------------------
# Polynomials as {exponents: integer coefficient}, rendered as text
# ---------------------------------------------------------------------------

Poly = Dict[Tuple[int, ...], int]


def render(poly: Poly, vars_: List[str]) -> str:
    def mono(m):
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(vars_, m) if e) or "1"
    return " + ".join(f"{c}*{mono(m)}" for m, c in sorted(poly.items(), reverse=True))


def scale(poly: Poly, factors: List[int], p: int) -> Poly:
    """The image of ``poly`` under x_i -> factors[i] * x_i (mod p if p)."""
    out = {}
    for m, c in poly.items():
        for f, e in zip(factors, m):
            c *= f ** e
        out[m] = c % p if p else c
    return out


def scaling(rng: random.Random, field: str, nvars: int) -> List[int]:
    """A seeded diagonal change of variables that leaves a Groebner basis
    computation's work unchanged: any units mod p, and signs over Q (other
    rationals would change the size of every coefficient)."""
    if field == "q":
        return [rng.choice((1, -1)) for _ in range(nvars)]
    return [rng.randrange(1, int(field[3:])) for _ in range(nvars)]


# ---------------------------------------------------------------------------
# Standard systems, defined by formulas
# ---------------------------------------------------------------------------

def _unit(n: int, *idx: int) -> Tuple[int, ...]:
    exps = [0] * n
    for i in idx:
        exps[i] += 1
    return tuple(exps)


def cyclic(n: int) -> List[Poly]:
    eqs = [{_unit(n, *((i + j) % n for j in range(k))): 1 for i in range(n)}
           for k in range(1, n)]
    eqs.append({_unit(n, *range(n)): 1, _unit(n): -1})
    return eqs


def katsura(n: int) -> List[Poly]:
    eqs = []
    for m in range(n):
        eq: Poly = {_unit(n + 1, m): -1}
        for l in range(-n, n + 1):
            if abs(m - l) <= n:
                key = _unit(n + 1, abs(l), abs(m - l))
                eq[key] = eq.get(key, 0) + 1
        eqs.append(eq)
    eqs.append({_unit(n + 1): -1, _unit(n + 1, 0): 1,
                **{_unit(n + 1, i): 2 for i in range(1, n + 1)}})
    return eqs


# cyclic-5 (35 s per basis today) stays out until the kernel is reworked.
STANDARD_SYSTEMS = (("cyclic-4", 4, cyclic(4)), ("katsura-3", 4, katsura(3)),
                    ("katsura-4", 5, katsura(4)), ("katsura-5", 6, katsura(5)))


# ---------------------------------------------------------------------------
# Sparse random polynomials
# ---------------------------------------------------------------------------

def _monomial(rng: random.Random, nvars: int, lo: int, hi: int) -> Tuple[int, ...]:
    return _unit(nvars, *(rng.randrange(nvars) for _ in range(rng.randint(lo, hi))))


def _coefficient(rng: random.Random, field: str) -> int:
    """Nonzero: in -9..9 over Q (small, so rationals stay small), any unit mod p."""
    if field == "q":
        return rng.choice([c for c in range(-9, 10) if c])
    return rng.randrange(1, int(field[3:]))


def _binomial(rng: random.Random, field: str, nvars: int) -> Poly:
    """m1 - c*m2 with deg m1 in 1..2 and deg m2 in 0..2."""
    a = _monomial(rng, nvars, 1, 2)
    b = _monomial(rng, nvars, 0, 2)
    while b == a:
        b = _monomial(rng, nvars, 0, 2)
    return {a: 1, b: -_coefficient(rng, field)}


def _linear(rng: random.Random, field: str, nvars: int) -> Poly:
    a, b = rng.sample([_unit(nvars, i) for i in range(nvars)] + [_unit(nvars)], 2)
    return {a: _coefficient(rng, field), b: _coefficient(rng, field)}


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

SHAPES_SEED = 20250826
IDEAL_OPS = ("saturate", "colon", "intersection", "radical-membership",
             "membership")


def _ideal_payload(shape: random.Random, rng: random.Random, op: str,
                   field: str) -> Dict:
    """One ideal op: a fixed instance drawn from ``shape``, moved by a
    change of variables drawn from ``rng``."""
    factors = scaling(rng, field, 3)
    p = field_modulus(field)

    def text(polys):
        return [render(scale(f, factors, p), VARS3) for f in polys]

    def ideal(k):
        return text([_binomial(shape, field, 3) for _ in range(k)])

    ring = {"field": field, "vars": VARS3}
    if op == "saturate":
        return {"op": op, "ring": ring, "ideal": ideal(3),
                "f": text([{_monomial(shape, 3, 1, 2): 1}])[0]}
    if op == "colon":
        return {"op": op, "ring": ring, "ideal": ideal(3),
                "element": text([_linear(shape, field, 3)])[0]}
    if op == "intersection":
        return {"op": "combine", "mode": "intersection", "ring": ring,
                "left": ideal(2), "right": ideal(2)}
    return {"op": op, "ring": ring, "ideal": ideal(3),
            "element": text([_binomial(shape, field, 3)])[0]}


def kernel_round(seed: int, ideal_jobs: int = 120, systems=STANDARD_SYSTEMS) -> List[Dict]:
    """The standard systems over both fields, and ``ideal_jobs`` ideal ops.

    Every job is a fixed instance (``SHAPES_SEED``) under a seeded diagonal
    change of variables, so the seed changes the inputs and answers but not
    the work: random instances made one basis in fifty cost 50x its
    neighbours, and seeds then disagreed by more than any useful bound.
    """
    shape, rng = random.Random(SHAPES_SEED), random.Random(seed)
    ideal = [{"command": "ideal", "label": f"{op}/{field}",
              "payload": _ideal_payload(shape, rng, op, field)}
             for k in range(ideal_jobs)
             for op, field in [(IDEAL_OPS[k % 5], FIELDS[k // 5 % 2])]]
    gb = []
    for name, nvars, eqs in systems:
        names = [f"x{i}" for i in range(nvars)]
        for field in FIELDS:
            factors, p = scaling(rng, field, nvars), field_modulus(field)
            gb.append({"command": "groebner", "label": f"{name}/{field}", "payload": {
                "ring": {"field": field, "vars": names},
                "generators": [render(scale(f, factors, p), names) for f in eqs]}})
    # Spread the standard systems evenly through the round.
    step = max(1, len(ideal) // max(1, len(gb)))
    jobs: List[Dict] = []
    for k, job in enumerate(gb):
        jobs.extend(ideal[k * step:(k + 1) * step])
        jobs.append(job)
    jobs.extend(ideal[len(gb) * step:])
    return jobs


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

# Connected partial orders on 4 points, as pairs (a, b) meaning a <= b: a
# chain, a fence, a diamond, a Y, and one minimum or maximum under three.
POSETS = ([[0, 1], [1, 2], [2, 3]], [[0, 1], [2, 1], [2, 3]],
          [[0, 1], [0, 2], [1, 3], [2, 3]], [[0, 1], [1, 2], [1, 3]],
          [[0, 1], [0, 2], [0, 3]], [[1, 0], [2, 0], [3, 0]])
# Z/n for these n: 5 to 16 ideals, longest chains of 4 to 7.
ZN_VALUES = (12, 24, 30, 36, 48, 60, 64, 81, 100, 120)


def _univariate(rng: random.Random, deg: int) -> str:
    """Monic of degree ``deg`` >= 1 with coefficients in -3..3."""
    terms = [f"x^{deg}" if deg > 1 else "x"]
    for k in range(deg - 1, -1, -1):
        c = rng.randint(-3, 3)
        if c:
            terms.append(f"{c}*x^{k}" if k else str(c))
    return " + ".join(terms)


def _f2_poly(rng: random.Random, max_terms: int) -> List[List[int]]:
    monos = [(i, j) for i in range(4) for j in range(4 - i)]
    return sorted(list(m) for m in rng.sample(monos, rng.randint(1, max_terms)))


# Tiny F_2 membership problems per job, from a fixed pool that the seed
# deals out: over F_2 no change of variables keeps the work, and a median
# over freshly drawn problems swung by 12 % with the seed.
F2_BATCH = 5
# The two rings of acceptance criterion 7; Z/6 and Z/9 cost 10-100x more.
BAER_RINGS = ({"zmod": 4}, {"gf_quotient": {"p": 2, "modulus": [0, 0, 1]}})
# Test modules per ring: the quotients R/N (R, R/(2) or R/(x), 0) and R^2.
BAER_MODULES = 4


def structures_round(seed: int, tiny: bool = False) -> List[Dict]:
    """One round of library tasks, in a seeded order.

    Task counts, sizes and shapes are fixed; the seed deals the F_2 problems
    into jobs and draws coefficients, point labels, samples and twists, so
    every seed asks for about the same amount of work.
    """
    rng = random.Random(seed)

    def count(full, small):
        return small if tiny else full

    jobs: List[Dict] = []
    pool = random.Random(SHAPES_SEED + 2)
    problems = [{"gens": [_f2_poly(pool, 4) for _ in range(pool.randint(1, 3))],
                 "element": _f2_poly(pool, 5)} for _ in range(count(120, 4) * F2_BATCH)]
    rng.shuffle(problems)
    for k in range(0, len(problems), F2_BATCH):
        jobs.append({"kind": "f2-membership", "args": {"problems": problems[k:k + F2_BATCH]}})
    for below in POSETS[:count(6, 1)]:
        perm = rng.sample(range(4), 4)
        jobs.append({"kind": "zz-sweep", "args": {
            "points": 4, "below": sorted([perm[a], perm[b]] for a, b in below),
            "values": [0, 1, 2, 4, 8], "sample": count(300, 8),
            "sample_seed": rng.randrange(1 << 30)}})
    for _ in range(count(12, 1)):
        basis: List[str] = []
        for deg in (1, 1, 2, 2):
            f = _univariate(rng, deg)
            while f in basis:
                f = _univariate(rng, deg)
            basis.append(f)
        jobs.append({"kind": "qc-round-trip", "args": {
            "ideal": _univariate(rng, 5), "basis": basis}})
    for n in ZN_VALUES[:count(10, 2)]:
        jobs.append({"kind": "zn-ideals", "args": {"n": n}})
    for ring in BAER_RINGS[:count(2, 1)]:
        for index in range(count(BAER_MODULES, 2)):
            jobs.append({"kind": "baer", "args": {"ring": ring, "module_index": index}})
    for k in range(count(12, 2)):
        jobs.append({"kind": "cech-twist", "args": {
            "n": 1 + k % 4, "d": rng.randint(-12, 12)}})
    for field in ("q", "fp:5"):
        for rule in ("power", "literal"):
            jobs.append({"kind": "tower-suite", "args": {
                "field": field, "rule": rule, "depth": count(5, 3)}})
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def cli_round(seed: int, calls: int = 2) -> List[Dict]:
    """``calls`` small calls of each subcommand except ``suite``; two make 20
    jobs, so that the tail percentile has ten jobs beyond it."""
    rng = random.Random(seed)
    return [job for _ in range(calls) for job in _cli_calls(rng)]


def _cli_calls(rng: random.Random) -> List[Dict]:
    q1 = {"field": "q", "vars": ["x"]}
    f2 = rng.choice(FIELDS)
    q2 = {"field": f2, "vars": ["x", "y"]}
    root = rng.choice(["1", "2", "-1", "3"])
    g0 = {"ring": q1, "nodes": [{"open": "1", "gens": []},
                                {"open": "x", "gens": ["1"]}],
          "edges": [[0, 1]], "root": 0}
    n, d = rng.randint(1, 3), rng.randint(-8, 8)
    zn = rng.choice((4, 8, 9, 12))
    return [
        {"command": "groebner", "payload": {
            "ring": q2, "generators": [render(_binomial(rng, f2, 2), ["x", "y"])
                                       for _ in range(2)]}},
        {"command": "ideal", "payload": {
            "op": "saturate", "ring": {"field": "q", "vars": VARS3},
            "ideal": [render(_binomial(rng, "q", 3), VARS3) for _ in range(3)],
            "f": render({_monomial(rng, 3, 1, 2): 1}, VARS3)}},
        {"command": "open", "payload": {
            "op": "contains", "ring": {"field": "q", "vars": ["x", "y"]},
            "a": render({_monomial(rng, 2, 1, 2): 1}, ["x", "y"]),
            "b": render({_monomial(rng, 2, 1, 3): 1}, ["x", "y"])}},
        {"command": "digraph-validate", "payload": {"op": "validate", "digraph": {
            "ring": q1, "nodes": [{"open": "1", "gens": [f"x - {root}"]}],
            "edges": [], "root": 0}}},
        {"command": "digraph-eval", "payload": {
            "op": "evaluate", "open": f"x^2 - {rng.randint(1, 5)}*x", "digraph": g0}},
        {"command": "digraph-extract", "payload": {
            "oracle": {"kind": "quasi-coherent", "ring": q1,
                       "ideal": [_univariate(rng, 3)]},
            "basis": ["x", f"x - {root}", f"x^2 - {root}*x"]}},
        {"command": "cech-affine", "payload": {
            "op": "vanishing", "ring": q1, "ideal": [f"x - {root}"],
            "cover": {"target": "1", "pieces": ["x", "x - 1"]}}},
        {"command": "cech-projective", "argv": ["--n", str(n), "--d", str(d)]},
        {"command": "baer", "payload": {
            "op": "test", "finite_ring": {"zmod": zn},
            "module": {"kind": "quotient", "rank": 1,
                       "relations": [[rng.choice([k for k in range(1, zn) if zn % k == 0])]]}}},
        {"command": "etale", "argv": ["--depth", str(rng.randint(2, 3)), "--field",
                                      rng.choice(["q", "fp:5"]), "--exponent-rule",
                                      rng.choice(["power", "literal"])]},
    ]


def build(workload: str, seed: int, tiny: bool = False) -> List[Dict]:
    """The round for a workload; ``tiny`` is the smoke-test size."""
    if workload == "kernel":
        return (kernel_round(seed, ideal_jobs=5, systems=STANDARD_SYSTEMS[:2])
                if tiny else kernel_round(seed))
    if workload == "structures":
        return structures_round(seed, tiny)
    if workload == "cli":
        return cli_round(seed, calls=1 if tiny else 2)
    raise ValueError(f"unknown workload {workload!r}")
