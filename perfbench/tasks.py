"""Library tasks of the ``structures`` workload.

Each task takes the plain-data arguments made by ``workloads.py``, drives
the program only through names exported from ``noether``, and returns a
small JSON-ready answer that ``reference.py`` checks.  Objects are built
once per task and reused inside it, the way the acceptance criteria and
``scripts/`` use them.  Imported only by the timed process, so it may
import nothing but ``noether`` and the standard library.
"""

from __future__ import annotations

import random

import noether as nt


def f2_membership(args):
    F2 = nt.GF(2)
    ring = nt.PresentedRing(F2, ("x", "y"))

    def poly(monos):
        return nt.Polynomial(F2, 2, {tuple(m): 1 for m in monos})

    return {"member": [nt.ideal_membership(poly(pr["element"]),
                                           ring.ideal([poly(g) for g in pr["gens"]]))
                       for pr in args["problems"]]}


def _assignments(opens, values):
    """Every assignment U -> n_U with n_U | n_V whenever U is inside V."""
    order = sorted(opens, key=lambda s: (len(s), sorted(s)))
    below = [[j for j in range(i) if order[j] < order[i]] for i in range(len(order))]
    chosen = []

    def rec(i):
        if i == len(order):
            yield dict(zip(order, chosen))
            return
        for v in values:
            if all((v % chosen[j] == 0) if chosen[j] else v == 0 for j in below[i]):
                chosen.append(v)
                yield from rec(i + 1)
                chosen.pop()

    return list(rec(0))


def zz_sweep(args):
    space = nt.FiniteSpace(range(args["points"]), [tuple(p) for p in args["below"]])
    opens = space.connected_opens()
    every = _assignments(opens, args["values"])
    rng = random.Random(args["sample_seed"])
    sample = rng.sample(every, min(args["sample"], len(every)))
    mismatches = 0
    for assign in sample:
        d = nt.extract_zz_digraph(nt.ZZSheafData(space, assign))
        mismatches += sum(nt.zz_sheaf_value(d, U) != assign[U] for U in opens)
    return {"connected_opens": len(opens), "assignments": len(every),
            "checked": len(sample), "mismatches": mismatches}


def qc_round_trip(args):
    ring = nt.PresentedRing(nt.QQ, ("x",))
    ideal = ring.ideal(args["ideal"])
    basis = [nt.DistinguishedOpen(ring, ring.parse(f)) for f in args["basis"]]
    d = nt.extract_digraph(nt.quasi_coherent_oracle(ideal, basis))
    sections = [[ring.render(g) for g in nt.evaluate_sheaf(d, u).generators]
                for u in basis]
    return {"nodes": len(d.nodes), "sections": sections}


def zn_ideals(args):
    R = nt.zmod(args["n"])
    ideals = nt.enumerate_ideals(R)
    report = nt.noetherian_witness(R, ideals)
    return {"ideals": len(ideals), "max_strict_chain": report.max_strict_chain,
            "ok": report.ok}


def _finite_ring(desc):
    if "zmod" in desc:
        return nt.zmod(desc["zmod"])
    spec = desc["gf_quotient"]
    return nt.gf_poly_quotient(spec["p"], spec["modulus"])


def baer(args):
    R = _finite_ring(args["ring"])
    base = nt.ring_as_module(R)
    modules = [nt.quotient_module(base, N, name="R/N")
               for N in nt.enumerate_submodules(base)]
    square = nt.free_module(R, 2)
    if square.size <= 16:
        modules.append(square)
    M = modules[args["module_index"]]
    ambient = [nt.free_module(R, 1), square]
    return {"ring_size": R.size, "module_size": M.size,
            "free_rank": 2 if M is square else 1,
            "baer": nt.baer_test(M).injective,
            "first_principles": nt.first_principles_injective(M, ambient)}


def cech_twist(args):
    dims = nt.twisted_cohomology_dims(nt.TwistData(args["n"], args["d"]))
    return {"dims": [dims[i] for i in sorted(dims)]}


def tower_suite(args):
    field = nt.QQ if args["field"] == "q" else nt.GF(int(args["field"][3:]))
    rep = nt.run_tower_suite(args["depth"], field, args["rule"])
    level = rep.failing_level()
    witness = next((r.witness for r in rep.cover_maps if not r.ok), None)
    return {"ok": rep.ok, "failing_level": level, "witness": witness}


TASKS = {
    "f2-membership": f2_membership,
    "zz-sweep": zz_sweep,
    "qc-round-trip": qc_round_trip,
    "zn-ideals": zn_ideals,
    "baer": baer,
    "cech-twist": cech_twist,
    "tower-suite": tower_suite,
}
