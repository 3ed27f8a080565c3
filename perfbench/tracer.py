"""Timing wrappers around the program's layers, installed from outside.

The traced run patches the public functions and methods listed in
``LAYERS`` with wrappers that record one span per call: name, start, end
and the id of the enclosing span.  Spans stay in memory (four flat
arrays) and are written out once, at the end.  A layer's self time is the
duration of its spans minus the part of each span that its child spans
cover (``self_times``).

Hot leaves are counted, not timed: a timed wrapper costs about a
microsecond, and ``MonomialOrder.key`` or ``FiniteSpace.leq`` run millions
of times per round.  Their time shows in the caller's self time.

Imported by the timed process, so it imports only the standard library;
``install`` imports the program modules it patches.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

RINGS_API = (
    "op_groebner_basis", "ideal_membership", "ideal_equal", "ideal_contains",
    "ideal_combine", "saturate", "colon_ideal", "radical_membership",
    "IdealHandle.plain_basis", "IdealHandle.canonical_basis",
    "IdealHandle.contains", "IdealHandle.is_unit_ideal",
    "IdealHandle.is_zero_ideal", "PresentedRing.parse", "PresentedRing.ideal",
    "PresentedRing.with_inverted", "PresentedRing.inverted_product")
UNIVAR_API = ("poly_degree", "exact_quotient", "divides", "gcd", "multiplicity",
              "to_sympy", "from_sympy", "irreducible_factors")

# layer -> (module, timed names, counted names -> counter).  "Class.method"
# names a method; a name may be both timed and counted.
LAYERS: Dict[str, Tuple[str, Sequence[str], Dict[str, str]]] = {
    "fields": ("noether.fields", ("FieldSpec.inv", "FieldSpec.div"), {
        "FieldSpec.add": "fields.ops", "FieldSpec.sub": "fields.ops",
        "FieldSpec.mul": "fields.ops", "FieldSpec.neg": "fields.ops",
        "FieldSpec.inv": "fields.ops", "FieldSpec.div": "fields.ops"}),
    "poly": ("noether.poly", (
        "Polynomial._binop", "Polynomial.__mul__", "Polynomial.__rmul__",
        "Polynomial.__neg__", "Polynomial.__pow__", "Polynomial.scale",
        "Polynomial.mul_term", "Polynomial.monic", "Polynomial.lift",
        "Polynomial.drop_aux", "Polynomial.substitute", "Polynomial.render"), {
        "DegRevLex.key": "poly.order_key_calls", "Lex.key": "poly.order_key_calls",
        "BlockElim.key": "poly.order_key_calls",
        "Polynomial.leading_monomial": "poly.leading_monomial_calls"}),
    "parse": ("noether.parse", ("parse_polynomial",), {}),
    "groebner": ("noether.groebner", ("groebner_basis", "normal_form"), {
        "groebner_basis": "groebner.basis_calls", "normal_form": "groebner.nf_calls"}),
    "rings": ("noether.rings", RINGS_API, {n: "rings.calls" for n in RINGS_API}),
    "univar": ("noether.univar", UNIVAR_API, {n: "univar.calls" for n in UNIVAR_API}),
    "topology": ("noether.topology", (
        "DistinguishedOpen.is_empty", "DistinguishedOpen.is_whole",
        "open_contains", "open_equal", "open_strictly_below", "open_intersect",
        "cover_check", "coordinate_ring", "enumerate_spec", "FiniteSpace.opens",
        "FiniteSpace.connected", "FiniteSpace.connected_opens"), {
        "FiniteSpace.opens": "topology.opens_calls",
        "FiniteSpace.leq": "topology.leq_calls"}),
    "digraph": ("noether.digraph", (
        "validate_digraph", "clear_denominators", "section_membership",
        "evaluate_sheaf", "quasi_coherent_oracle", "digraph_oracle",
        "extract_digraph", "is_quasi_coherent", "extract_zz_digraph",
        "zz_sheaf_value", "count_digraph_space", "SheafOracle.query",
        "ZZSheafData.validate", "DigraphNode.ideal_in"), {}),
    "cech": ("noether.cech", (
        "matrix_rank", "twisted_cohomology_dims", "cech_complex_affine",
        "affine_vanishing_check", "CechComplex.verify_d_squared",
        "CechComplex.cohomology_dims"), {"matrix_rank": "cech.matrix_rank_calls"}),
    "finite": ("noether.finite", (
        "ideal_closure", "is_ideal", "enumerate_ideals", "minimal_generators",
        "is_prime_ideal", "noetherian_witness", "submodule", "span",
        "enumerate_submodules", "quotient_module", "free_module", "direct_sum",
        "module_generators", "all_homs", "is_linear_map", "hom_from_ideal",
        "zmod", "gf_poly_quotient"), {
        "all_homs": "finite.all_homs_calls", "FiniteRing.add": "finite.ring_ops",
        "FiniteRing.mul": "finite.ring_ops"}),
    "baer": ("noether.baer", (
        "baer_test", "baer_step", "baer_chain", "chain_fixed_pointwise",
        "injective_envelope_bruteforce", "first_principles_injective"), {}),
    "tower": ("noether.tower", (
        "tower_ring", "verify_cover_map", "pullback_ideal", "pullback_strictness",
        "properness_and_maximality", "run_tower_suite"), {}),
    "jobs": ("noether.jobs", ("run_job", "parse_job", "Report.to_json",
                              "Report.to_text"), {}),
    "cli": ("noether.cli", ("main",), {}),
}

COUNTERS = sorted({c for _, _, counted in LAYERS.values() for c in counted.values()})


class Tracer:
    """Span recorder.  Not thread-safe: the program is single-threaded."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: List[int] = []
        self.active: List[int] = []
        self.counts: Dict[str, List[int]] = {c: [0] for c in COUNTERS}
        self.nf_under_basis = [0, 0]  # [normal forms inside groebner_basis, zero ones]
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self._ids[name]

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, active, clock = self.stack, self.active, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            active[nid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for layer, (modname, timed, counted) in LAYERS.items():
            module = importlib.import_module(modname)
            for target in sorted(set(timed) | set(counted)):
                factory = self._factory(layer, target, target in timed,
                                        counted.get(target))
                if "." in target:
                    cls_name, attr = target.split(".")
                    self._patch_method(getattr(module, cls_name), attr, factory)
                else:
                    self._patch_function(getattr(module, target), factory)

    def _factory(self, layer, target, timed, counter):
        def make(fn):
            if counter is not None:
                fn = self.counted(counter, fn)
            if timed:
                after = self._after_normal_form if target == "normal_form" else None
                fn = self.timed(f"{layer}.{target.split('.')[-1]}", fn, after)
            return fn
        return make

    def _after_normal_form(self, result) -> None:
        if self.active[self.name_id("groebner.groebner_basis")]:
            self.nf_under_basis[0] += 1
            if not result.terms:
                self.nf_under_basis[1] += 1

    def _patch_function(self, original, factory) -> None:
        wrapped = factory(original)
        for modname, module in list(sys.modules.items()):
            if modname != "noether" and not modname.startswith("noether."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def _patch_method(self, cls, attr, factory) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(factory(raw.__func__))
        else:
            new = factory(raw)
        self._patched.append((cls, attr, raw))
        setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def dump(self, path: str, **extra) -> None:
        """Write the spans: one JSON header line, then the four raw arrays."""
        header = {"names": self.names, "spans": len(self.span_start),
                  "counts": {k: v[0] for k, v in self.counts.items()},
                  "nf_under_basis": self.nf_under_basis, **extra}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def load(path: str):
    """Read a dump back: (header, names, parents, starts, ends)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        cols = [array("i"), array("i"), array("d"), array("d")]
        for col in cols:
            col.fromfile(fh, n)
    return (header, *cols)


def self_times(names: Sequence[str], span_name: Sequence[int],
               parents: Sequence[int], starts: Sequence[float],
               ends: Sequence[float]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus the union of the
    intervals its direct children cover, clipped to the span itself."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[sid], ends[sid]))
    out: Dict[str, float] = {}
    for sid in range(len(starts)):
        lo, hi = starts[sid], ends[sid]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        name = names[span_name[sid]]
        out[name] = out.get(name, 0.0) + (hi - lo) - covered
    return out


def layer_self_times(per_name: Dict[str, float]) -> Dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for name, seconds in per_name.items():
        layer = name.split(".")[0]
        if layer in out:
            out[layer] += seconds
    return out
