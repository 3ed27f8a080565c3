"""Independent reference answers, and the check of the program's answers.

    python3 perfbench/reference.py INPUTS.json OUT.json

computes one reference per job of a round.  It runs as its own process,
outside the timed one, so the timed process imports nothing the program
does not.  Polynomial answers come from ``sympy.groebner`` (grevlex, over
QQ or with ``modulus=p``); elimination ideals (saturation, colon,
intersection) come from a lex basis with the auxiliary variable first.
Structural answers come from closed forms:

* Z/n has one ideal per divisor of n; its longest chain of ideals has
  Omega(n) + 1 members.
* Bott's formula: h^0(P^n, O(d)) = C(n+d, n), h^n = C(-d-1, n), and every
  other h^i is 0.
* The cover tower passes at every level under the power rule; under the
  literal rule it fails first at level 3, where x^4 - 2 maps to the
  non-unit x^8 - 2.
* Quasi-coherent extraction is root-only, and its section ideal over D(h)
  is generated by f with every factor shared with h removed.
* Z/n is self-injective: its quotient Z/m is injective iff gcd(m, n/m) = 1,
  so over Z/4 and F_2[x]/(x^2) a quotient is injective iff it is 0 or the
  ring, and free modules are injective.

``check`` compares one answer with its reference; it needs no sympy.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import Dict, List, Tuple

# ---------------------------------------------------------------------------
# Polynomials as {exponents: coefficient}, and the program's text form
# ---------------------------------------------------------------------------

_FACTOR = re.compile(r"^(?:(\d+(?:/\d+)?)|([a-z][0-9]*)(?:\^(\d+))?)$")


def parse_rendered(text: str, vars_: List[str], p: int = 0) -> Dict[Tuple[int, ...], object]:
    """Parse the output form of ``Polynomial.render`` ("x^2*y - 1/3*z + 2")."""
    index = {v: i for i, v in enumerate(vars_)}
    out: Dict[Tuple[int, ...], object] = {}
    if text.strip() == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coeff, exps = Fraction(sign), [0] * len(vars_)
        for factor in term.lstrip("-").split("*"):
            m = _FACTOR.match(factor)
            if m is None:
                raise ValueError(f"cannot parse {text!r}")
            if m.group(1):
                coeff *= Fraction(m.group(1))
            else:
                exps[index[m.group(2)]] += int(m.group(3) or 1)
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    return normalize(out, p)


def normalize(poly, p: int = 0):
    """Drop zero terms; reduce coefficients mod p when p > 0."""
    out = {}
    for m, c in poly.items():
        c = int(c) % p if p else Fraction(c)
        if c:
            out[m] = c
    return out


def grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def monic(poly, p: int = 0):
    if not poly:
        return poly
    lc = poly[max(poly, key=grevlex_key)]
    inv = pow(lc, -1, p) if p else 1 / lc
    return normalize({m: c * inv for m, c in poly.items()}, p)


def canonical(polys, p: int = 0) -> List[List]:
    """A basis as a sorted, comparable value: monic, terms sorted."""
    out = []
    for poly in polys:
        poly = monic(poly, p)
        out.append(sorted([list(m), str(c)] for m, c in poly.items()))
    return sorted(out)


def field_modulus(desc: str) -> int:
    return int(desc[3:]) if desc.startswith("fp:") else 0


# ---------------------------------------------------------------------------
# sympy references (reference process only)
# ---------------------------------------------------------------------------

def _sympy():
    import sympy
    return sympy


def _sym_polys(texts, gens):
    sp = _sympy()
    local = {str(g): g for g in gens}
    return [sp.sympify(t.replace("^", "**"), locals=local) for t in texts]


def _opts(p: int) -> Dict:
    sp = _sympy()
    return {"modulus": p} if p else {"domain": sp.QQ}


def _to_dict(poly, p: int):
    sp = _sympy()
    out = {}
    for m, c in poly.terms():
        out[tuple(int(e) for e in m)] = (int(c) if p else Fraction(int(sp.Rational(c).p),
                                                                     int(sp.Rational(c).q)))
    return normalize(out, p)


def _grevlex_basis(exprs, gens, p: int):
    sp = _sympy()
    if not exprs:
        return []
    G = sp.groebner(exprs, *gens, order="grevlex", **_opts(p))
    return [_to_dict(g, p) for g in G.polys]


def _eliminate(exprs, t, gens, p: int):
    """Generators of (exprs) intersected with k[gens], by a lex basis in t > gens."""
    sp = _sympy()
    G = sp.groebner(exprs, t, *gens, order="lex", **_opts(p))
    return [g.as_expr() for g in G.polys if g.degree(t) == 0]


def _ideal_reference(payload: Dict):
    sp = _sympy()
    ring = payload["ring"]
    p = field_modulus(ring["field"])
    gens = sp.symbols(ring["vars"])
    t = sp.Symbol("t_aux")
    op = payload["op"]

    def polys(key):
        return _sym_polys(payload[key], gens)

    if op == "membership":
        G = sp.groebner(polys("ideal"), *gens, order="grevlex", **_opts(p))
        return {"value": bool(G.contains(_sym_polys([payload["element"]], gens)[0]))}
    if op == "radical-membership":
        f = _sym_polys([payload["element"]], gens)[0]
        G = sp.groebner(polys("ideal") + [1 - t * f], t, *gens, order="grevlex", **_opts(p))
        return {"value": list(G.exprs) == [1]}
    if op == "saturate":
        f = _sym_polys([payload["f"]], gens)[0]
        elim = _eliminate(polys("ideal") + [1 - t * f], t, gens, p)
        return {"basis": canonical(_grevlex_basis(elim, gens, p), p)}
    if op == "colon":
        g = _sym_polys([payload["element"]], gens)[0]
        inter = _eliminate([t * h for h in polys("ideal")] + [(1 - t) * g], t, gens, p)
        quotients = [sp.div(h, g, *gens, **_opts(p))[0] for h in inter]
        return {"basis": canonical(_grevlex_basis(quotients, gens, p), p)}
    if op == "combine":
        inter = _eliminate([t * h for h in polys("left")]
                           + [(1 - t) * h for h in polys("right")], t, gens, p)
        return {"basis": canonical(_grevlex_basis(inter, gens, p), p)}
    raise ValueError(f"no reference for ideal op {op!r}")


def _strip_shared(f_text: str, h_text: str):
    """f with every factor it shares with h removed, in Q[x]."""
    sp = _sympy()
    x = sp.Symbol("x")
    f = sp.Poly(_sym_polys([f_text], [x])[0], x, domain=sp.QQ)
    h = sp.Poly(_sym_polys([h_text], [x])[0], x, domain=sp.QQ)
    while True:
        d = sp.gcd(f, h)
        if d.degree() <= 0:
            return canonical([_to_dict(f, 0)])
        f = sp.div(f, d)[0]


def _f2_member(problem) -> bool:
    sp = _sympy()
    x, y = sp.symbols("x y")

    def expr(monos):
        return sum(x ** a * y ** b for a, b in monos)

    G = sp.groebner([expr(g) for g in problem["gens"]], x, y, order="grevlex", modulus=2)
    return bool(G.contains(expr(problem["element"])))


# ---------------------------------------------------------------------------
# Closed forms (no sympy)
# ---------------------------------------------------------------------------

def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def prime_factor_count(n: int) -> int:
    count, d = 0, 2
    while n > 1:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count


def bott(n: int, d: int) -> List[int]:
    dims = [0] * (n + 1)
    if d >= 0:
        dims[0] = math.comb(n + d, n)
    if d <= -n - 1:
        dims[n] = math.comb(-d - 1, n)
    return dims


def tower_outcome(field: str, rule: str, depth: int) -> Dict:
    if rule == "power" or depth < 3:
        return {"ok": True, "failing_level": None, "witness": None}
    p = field_modulus(field)
    witness = normalize({(8,): 1, (0,): -2}, p)
    return {"ok": False, "failing_level": 3, "witness": canonical([witness], p)}


def connected_down_sets(n: int, below) -> List[frozenset]:
    """Nonempty connected down-sets of the preorder generated by ``below``."""
    leq = {(a, a) for a in range(n)} | {tuple(p) for p in below}
    for _ in range(n):
        leq |= {(a, d) for (a, b) in leq for (c, d) in leq if b == c}
    opens = []
    for bits in range(1, 1 << n):
        s = frozenset(i for i in range(n) if bits >> i & 1)
        if any((a, b) in leq and a not in s for b in s for a in range(n)):
            continue
        reach, todo = set(), [min(s)]
        while todo:
            a = todo.pop()
            reach.add(a)
            todo.extend(b for b in s if b not in reach and ((a, b) in leq or (b, a) in leq))
        if reach == s:
            opens.append(s)
    return opens


def count_assignments(opens: List[frozenset], values: List[int]) -> int:
    """Assignments U -> n_U with n_U | n_V whenever U is inside V."""
    opens = sorted(opens, key=len)

    def extend(chosen):
        i = len(chosen)
        if i == len(opens):
            return 1
        return sum(extend(chosen + [v]) for v in values
                   if all(v % chosen[j] == 0 if chosen[j] else v == 0
                          for j in range(i) if opens[j] < opens[i]))

    return extend([])


def baer_outcome(ring: Dict, module_index: int) -> Dict:
    """Both Baer rings are local of order p^2 with ideals 0 < m < R, so the
    test modules R/0, R/m, R/R and R^2 have sizes p^2, p, 1 and p^4."""
    p = ring["gf_quotient"]["p"] if "gf_quotient" in ring else math.isqrt(ring["zmod"])
    if module_index == 3:
        size, rank, injective = p ** 4, 2, True
    else:
        size, rank = p ** (2 - module_index), 1
        injective = size in (1, p * p)
    return {"ring_size": p * p, "module_size": size, "free_rank": rank,
            "baer": injective, "first_principles": injective}


# ---------------------------------------------------------------------------
# One reference per job
# ---------------------------------------------------------------------------

def reference(workload: str, job: Dict):
    if workload == "kernel":
        return _kernel_reference(job)
    if workload == "structures":
        return _structures_reference(job)
    return _cli_reference(job)


def _kernel_reference(job: Dict):
    payload = job["payload"]
    if job["command"] == "groebner":
        sp = _sympy()
        ring = payload["ring"]
        p = field_modulus(ring["field"])
        gens = sp.symbols(ring["vars"])
        basis = _grevlex_basis(_sym_polys(payload["generators"], gens), gens, p)
        return {"basis": canonical(basis, p)}
    return _ideal_reference(payload)


def _structures_reference(job: Dict):
    kind, args = job["kind"], job["args"]
    if kind == "f2-membership":
        return {"member": [_f2_member(pr) for pr in args["problems"]]}
    if kind == "zz-sweep":
        opens = connected_down_sets(args["points"], args["below"])
        count = count_assignments(opens, args["values"])
        return {"connected_opens": len(opens), "assignments": count,
                "checked": min(args["sample"], count), "mismatches": 0}
    if kind == "qc-round-trip":
        return {"nodes": 1, "sections": [_strip_shared(args["ideal"], h)
                                         for h in args["basis"]]}
    if kind == "zn-ideals":
        n = args["n"]
        return {"ideals": divisor_count(n), "max_strict_chain": prime_factor_count(n) + 1,
                "ok": True}
    if kind == "baer":
        return baer_outcome(args["ring"], args["module_index"])
    if kind == "cech-twist":
        return {"dims": bott(args["n"], args["d"])}
    if kind == "tower-suite":
        return tower_outcome(args["field"], args["rule"], args["depth"])
    raise ValueError(f"no reference for task {kind!r}")


def _cli_reference(job: Dict):
    command, payload = job["command"], job.get("payload", {})
    argv = job.get("argv", [])
    if command == "groebner":
        return {"exit": 0, **_kernel_reference(job)}
    if command == "ideal":
        return {"exit": 0, **_ideal_reference(payload)}
    if command == "open":
        # D(b) lies in D(a) for monomials iff every variable of a divides b.
        a = parse_rendered(payload["a"], payload["ring"]["vars"])
        b = parse_rendered(payload["b"], payload["ring"]["vars"])
        (ma,), (mb,) = a, b
        value = all(eb > 0 for ea, eb in zip(ma, mb) if ea > 0)
        return {"exit": 0 if value else 1, "value": value}
    if command in ("digraph-validate", "cech-affine"):
        return {"exit": 0}
    if command == "digraph-eval":
        return {"exit": 0, "generators": canonical([{(0,): 1}])}
    if command == "digraph-extract":
        oracle = payload["oracle"]
        gens = [parse_rendered(g, oracle["ring"]["vars"]) for g in oracle["ideal"]]
        return {"exit": 0, "root_gens": canonical(gens)}
    if command == "cech-projective":
        n, d = int(argv[1]), int(argv[3])
        return {"exit": 0, "dims": bott(n, d)}
    if command == "baer":
        n = payload["finite_ring"]["zmod"]
        k = payload["module"]["relations"][0][0]
        size = math.gcd(k, n)
        value = math.gcd(size, n // size) == 1
        return {"exit": 0 if value else 1, "injective": value}
    if command == "etale":
        depth, field, rule = int(argv[1]), argv[3], argv[5]
        out = tower_outcome(field, rule, depth)
        return {"exit": 0 if out["ok"] else 1, "failing_level": out["failing_level"]}
    raise ValueError(f"no reference for command {command!r}")


# ---------------------------------------------------------------------------
# Checking an answer
# ---------------------------------------------------------------------------

def _basis_of(texts, ring) -> List:
    p = field_modulus(ring["field"])
    return canonical([parse_rendered(t, ring["vars"], p) for t in texts], p)


def check(workload: str, job: Dict, out, ref) -> bool:
    """True iff the program's answer ``out`` matches the reference."""
    if workload == "kernel":
        return _check_report(job["command"], job["payload"], out, ref)
    if workload == "structures":
        return _check_task(job, out, ref)
    return _check_cli(job, out, ref)


def _check_report(command: str, payload: Dict, out: Dict, ref: Dict) -> bool:
    result = out.get("result") or {}
    if "value" in ref:
        expected = "pass" if ref["value"] else "fail"
        return out.get("status") == expected and result.get("value") == ref["value"]
    if out.get("status") != "pass":
        return False
    texts = result.get("basis") if command == "groebner" else result.get("generators")
    return texts is not None and _basis_of(texts, payload["ring"]) == ref["basis"]


def _check_task(job: Dict, out: Dict, ref: Dict) -> bool:
    kind, args = job["kind"], job["args"]
    if kind == "qc-round-trip":
        got = [_basis_of(s, {"field": "q", "vars": ["x"]}) for s in out["sections"]]
        return out["nodes"] == 1 and got == ref["sections"]
    if kind == "tower-suite" and out.get("witness") is not None:
        p = field_modulus(args["field"])
        witness = canonical([parse_rendered(out["witness"], ["x"], p)], p)
        return {**out, "witness": witness} == ref
    return out == ref


def _check_cli(job: Dict, out: Dict, ref: Dict) -> bool:
    if out.get("exit") != ref["exit"]:
        return False
    result = out.get("result") or {}
    command, payload = job["command"], job.get("payload", {})
    if command in ("groebner", "ideal"):
        return _check_report(command, payload, out, ref)
    if command == "open":
        return result.get("value") == ref["value"]
    if command in ("digraph-validate", "cech-affine"):
        return out.get("status") == "pass"
    if command == "digraph-eval":
        return _basis_of(result.get("generators", []), {"field": "q", "vars": ["x"]}) \
            == ref["generators"]
    if command == "digraph-extract":
        nodes = result.get("nodes", [])
        ring = payload["oracle"]["ring"]
        return (len(nodes) == 1 and result.get("edges") == []
                and _basis_of(nodes[0]["gens"], ring) == ref["root_gens"])
    if command == "cech-projective":
        return [result.get(f"H{i}") for i in range(len(ref["dims"]))] == ref["dims"]
    if command == "baer":
        return result.get("injective") == ref["injective"]
    if command == "etale":
        return result.get("failing_level") == ref["failing_level"]
    return False


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        inputs = json.load(fh)
    refs = [reference(inputs["workload"], job) for job in inputs["jobs"]]
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(refs, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
