"""Job parsing and dispatch: JSON in, deterministic report out.

A job names one of the CLI commands plus a command-specific payload.
Reports carry a status (pass / fail / error), the structured result, any
witness, and a configuration echo; timings live in their own field so the
rest of the report is byte-identical across runs.

Each handler imports the layers it uses when it runs, in the branch that
uses them, so a CLI process loads only what its command needs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .config import Budgets, DEFAULT_BUDGETS
from .errors import (CapabilityError, DomainError, OracleError,
                     ParseError, ResourceBudgetError, ValidationError)

if TYPE_CHECKING:
    from .digraph import IdealDigraph, ZZSheafData
    from .fields import FieldSpec
    from .finite import FiniteModule, FiniteRing
    from .rings import IdealHandle, PresentedRing
    from .topology import DistinguishedOpen

COMMANDS = ("groebner", "ideal", "open", "digraph-validate", "digraph-eval",
            "digraph-extract", "cech-affine", "cech-projective", "baer",
            "etale", "suite")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


@dataclass
class JobSpec:
    command: str
    payload: Dict[str, Any]
    budgets: Budgets = DEFAULT_BUDGETS


@dataclass
class Report:
    command: str
    status: str  # pass | fail | error
    result: Any = None
    witness: Any = None
    config: Dict[str, Any] = dc_field(default_factory=dict)
    timings: Dict[str, float] = dc_field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        if self.status == "pass":
            return EXIT_PASS
        if self.status == "fail":
            return EXIT_FAIL
        return self.config.get("exit_code", EXIT_RESOURCE)

    def as_dict(self) -> Dict[str, Any]:
        return {"command": self.command, "status": self.status,
                "result": self.result, "witness": self.witness,
                "config": self.config, "timings": self.timings}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"{self.command}: {self.status.upper()}"]
        lines.extend(_render_text(self.result, indent=2))
        if self.witness is not None:
            lines.append("witness:")
            lines.extend(_render_text(self.witness, indent=2))
        return "\n".join(lines)


def _render_text(value: Any, indent: int = 0) -> List[str]:
    pad = " " * indent
    if isinstance(value, dict):
        out = []
        for k in sorted(value, key=str):
            v = value[k]
            if isinstance(v, (dict, list)):
                out.append(f"{pad}{k}:")
                out.extend(_render_text(v, indent + 2))
            else:
                out.append(f"{pad}{k}: {v}")
        return out
    if isinstance(value, list):
        out = []
        for v in value:
            if isinstance(v, (dict, list)):
                out.extend(_render_text(v, indent + 2))
            else:
                out.append(f"{pad}- {v}")
        return out
    if value is None:
        return []
    return [f"{pad}{value}"]


# ---------------------------------------------------------------------------
# Descriptor parsing
# ---------------------------------------------------------------------------

class JsonObject(dict):
    """A decoded JSON object: reading a key it lacks is a ParseError naming
    the key, so a payload missing a required field exits 2."""

    def __missing__(self, key):
        raise ParseError(f"missing required key {key!r}")


def decode_object(text: str, what: str) -> JsonObject:
    """Decode a JSON document that must be an object; every defect of the
    text is a ParseError (``what`` names the document in messages)."""
    if not text.strip():
        raise ParseError(f"empty {what} input")
    try:
        doc = json.loads(text, object_hook=JsonObject)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON {what}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    return doc


def parse_job(text: str) -> JobSpec:
    """Parse a complete job document
    {"command": ..., "payload": {...}, "budgets": {"<field>": <int>}}."""
    doc = decode_object(text, "job")
    command = doc.get("command")
    if command not in COMMANDS:
        raise ParseError(f"unknown command {command!r}; "
                         f"expected one of {', '.join(COMMANDS)}")
    payload = doc.get("payload", JsonObject())
    if not isinstance(payload, dict):
        raise ParseError("payload must be a JSON object")
    overrides = doc.get("budgets", {})
    if not isinstance(overrides, dict):
        raise ParseError("budgets must be a JSON object")
    names = {f.name for f in fields(Budgets)}
    for name, value in overrides.items():
        if name not in names:
            raise ParseError(f"unknown budget field {name!r}")
        if type(value) is not int:
            raise ParseError(f"budget {name!r} must be an integer, got {value!r}")
    return JobSpec(command, payload, replace(Budgets.from_env(), **overrides))


def _int(value, key: str) -> int:
    """The payload value at ``key``, which must be a JSON integer (a float,
    boolean or numeric string is not); otherwise a ParseError naming the
    key."""
    if type(value) is not int:
        raise ParseError(f"{key!r} must be an integer, got {value!r}")
    return value


def _list(value, key: str, entry=str) -> List:
    """The payload value at ``key`` as a JSON list whose entries are all
    ``entry`` values (by default strings: variable names or polynomial
    texts); any other shape is a ParseError naming the key."""
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a JSON list, got {value!r}")
    for item in value:
        if not isinstance(item, entry):
            raise ParseError(f"{key!r} has an entry of the wrong type: {item!r}")
    return value


def _bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{key!r} must be a JSON boolean, got {value!r}")
    return value


def _object(desc, key: str) -> Dict[str, Any]:
    if not isinstance(desc, dict):
        raise ParseError(f"{key!r} must be a JSON object, got {desc!r}")
    return desc


def _field_from_json(desc) -> FieldSpec:
    from .fields import GF, QQ

    if desc == "q":
        return QQ
    if isinstance(desc, str) and desc.startswith("fp:") and desc[3:].isdecimal():
        return GF(int(desc[3:]))
    raise ParseError(f"unknown field descriptor {desc!r} for 'field'; "
                     "use 'q' or 'fp:<p>'")


def _ring_from_json(desc: Dict[str, Any]) -> PresentedRing:
    from .rings import PresentedRing

    desc = _object(desc, "ring")
    field = _field_from_json(desc.get("field", "q"))
    vars_ = tuple(_list(desc.get("vars", ["x"]), "vars"))
    base = PresentedRing(field, vars_)
    quotient = tuple(base.parse(s) for s in _list(desc.get("quotient", []), "quotient"))
    inverted = tuple(base.parse(s) for s in _list(desc.get("inverted", []), "inverted"))
    return PresentedRing(field, vars_, quotient, inverted)


def _finite_ring_from_json(desc: Dict[str, Any]) -> FiniteRing:
    from .finite import gf_poly_quotient, zmod

    desc = _object(desc, "finite_ring")
    if "zmod" in desc:
        return zmod(_int(desc["zmod"], "zmod"))
    if "gf_quotient" in desc:
        spec = _object(desc["gf_quotient"], "gf_quotient")
        return gf_poly_quotient(_int(spec["p"], "p"), list(spec["modulus"]))
    raise ParseError("finite ring descriptor needs 'zmod' or 'gf_quotient'")


def _finite_element(R: FiniteRing, value):
    elt = tuple(value) if isinstance(value, list) else value
    if elt not in R.elements:
        raise ParseError(f"{value!r} is not an element of {R.name}")
    return elt


def _module_from_json(R: FiniteRing, desc: Dict[str, Any]) -> FiniteModule:
    from .finite import (free_module, quotient_module, ring_as_module, span,
                         submodule, zero_module)

    kind = _object(desc, "module").get("kind", "ring")
    if kind == "ring":
        return ring_as_module(R)
    if kind == "zero":
        return zero_module(R)
    if kind == "free":
        return free_module(R, _int(desc.get("rank", 1), "rank"))
    if kind == "quotient":
        rank = _int(desc.get("rank", 1), "rank")
        free = free_module(R, rank)
        gens = [tuple(_finite_element(R, v) for v in vec)
                for vec in desc.get("relations", [])]
        return quotient_module(free, span(free, gens), name=desc.get("name", "M"))
    if kind == "submodule":
        rank = _int(desc.get("rank", 1), "rank")
        free = free_module(R, rank)
        gens = [tuple(_finite_element(R, v) for v in vec)
                for vec in desc.get("generators", [])]
        return submodule(free, span(free, gens), name=desc.get("name", "M"))
    raise ParseError(f"unknown module kind {kind!r}")


def _open_from_json(ring: PresentedRing, desc) -> DistinguishedOpen:
    from .topology import DistinguishedOpen

    text = desc["f"] if isinstance(desc, dict) else desc
    return DistinguishedOpen(ring, ring.parse(text))


def _opens_from_json(ring: PresentedRing, desc: Dict[str, Any],
                     key: str) -> List[DistinguishedOpen]:
    """The opens listed at ``key``, each a polynomial text or {"f": text}."""
    return [_open_from_json(ring, u) for u in _list(desc.get(key, []), key, (str, dict))]


def _ideal_from_json(ring: PresentedRing, desc: Dict[str, Any], key: str) -> IdealHandle:
    """The ideal generated by the polynomial texts listed at ``key``."""
    return ring.ideal([ring.parse(s) for s in _list(desc.get(key, []), key)])


def _digraph_from_json(desc: Dict[str, Any],
                       budgets: Budgets) -> Tuple[PresentedRing, IdealDigraph]:
    from .digraph import DigraphNode, IdealDigraph, clear_denominators

    ring = _ring_from_json(desc.get("ring", {}))
    edges = tuple((_int(a, "edges"), _int(b, "edges"))
                  for a, b in desc.get("edges", []))
    root = _int(desc.get("root", 0), "root")
    raw = desc.get("nodes", [])
    if any("fractions" in node for node in raw):
        nodes = []
        for node in raw:
            u = _open_from_json(ring, node["open"])
            fracs = [(ring.parse(fr["num"]), ring.parse(fr.get("den", "1")))
                     for fr in node.get("fractions", [])]
            fracs += [(ring.parse(g), ring.one()) for g in _node_gens(node)]
            nodes.append((u, fracs))
        return ring, clear_denominators(ring, nodes, edges, root, budgets)
    nodes = tuple(
        DigraphNode(_open_from_json(ring, node["open"]),
                    tuple(ring.parse(g) for g in _node_gens(node)))
        for node in raw)
    return ring, IdealDigraph(ring, nodes, edges, root)


def _node_gens(node: Dict[str, Any]) -> List[str]:
    key = "gens" if "gens" in node else "generators"
    return _list(node.get(key, []), key)


def _digraph_to_json(d: IdealDigraph) -> Dict[str, Any]:
    return {
        "nodes": [{"open": d.ring.render(n.open.f),
                   "gens": [d.ring.render(g) for g in n.gens]}
                  for n in d.nodes],
        "edges": [list(e) for e in d.edges],
        "root": d.root,
    }


def _render_basis(ring: PresentedRing, basis) -> List[str]:
    return [ring.render(g) for g in basis]


def _bool_report(command: str, value: bool, result: Any = None,
                 witness: Any = None, config: Optional[Dict] = None) -> Report:
    return Report(command, "pass" if value else "fail",
                  result=result if result is not None else {"value": value},
                  witness=witness, config=config or {})


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _run_groebner(payload: Dict, budgets: Budgets) -> Report:
    from .rings import op_groebner_basis

    ring = _ring_from_json(payload.get("ring", {}))
    handle = _ideal_from_json(ring, payload, "generators")
    canonical = _bool(payload.get("canonical", False), "canonical") or bool(ring.inverted)
    basis = op_groebner_basis(handle, canonical=canonical, budgets=budgets)
    return Report("groebner", "pass",
                  result={"basis": _render_basis(ring, basis),
                          "canonical": canonical},
                  config={"ring": ring.describe()})


def _run_ideal(payload: Dict, budgets: Budgets) -> Report:
    op = payload.get("op", "membership")
    if op in ("enumerate-ideals", "noetherian-witness"):
        from .finite import enumerate_ideals, noetherian_witness

        R = _finite_ring_from_json(payload["finite_ring"])
        if op == "enumerate-ideals":
            ideals = enumerate_ideals(R, budgets)
            return Report("ideal", "pass", result={
                "count": len(ideals),
                "ideals": [sorted(map(repr, i)) for i in ideals]},
                config={"ring": R.name})
        chain = [frozenset(_finite_element(R, v) for v in entry)
                 for entry in _list(payload.get("chain", []), "chain", entry=list)]
        rep = noetherian_witness(R, chain, budgets)
        return _bool_report("ideal", rep.ok, result={
            "generator_lists": [sorted(map(repr, g))
                                for g in rep.generator_lists],
            "max_strict_chain": rep.max_strict_chain,
            "ideal_count_bound": rep.ideal_count_bound,
            "ok": rep.ok}, config={"ring": R.name})

    from .rings import (colon_ideal, ideal_combine, ideal_contains, ideal_equal,
                        ideal_membership, radical_membership, saturate)

    ring = _ring_from_json(payload.get("ring", {}))

    def handle(key: str) -> IdealHandle:
        return _ideal_from_json(ring, payload, key)

    if op == "membership":
        value = ideal_membership(ring.parse(payload["element"]),
                                 handle("ideal"), budgets)
        return _bool_report("ideal", value)
    if op == "radical-membership":
        value = radical_membership(ring.parse(payload["element"]),
                                   handle("ideal"), budgets)
        return _bool_report("ideal", value)
    if op == "equal":
        return _bool_report("ideal",
                            ideal_equal(handle("left"), handle("right"), budgets))
    if op == "contains":
        return _bool_report("ideal",
                            ideal_contains(handle("left"), handle("right"), budgets))
    if op == "combine":
        mode = payload.get("mode", "sum")
        out = ideal_combine(mode, handle("left"), handle("right"), budgets)
        return Report("ideal", "pass", result={
            "mode": mode,
            "generators": _render_basis(ring, out.canonical_basis(budgets))})
    if op == "saturate":
        out = saturate(handle("ideal"), ring.parse(payload["f"]), budgets)
        return Report("ideal", "pass", result={
            "generators": _render_basis(ring, out.canonical_basis(budgets))})
    if op == "colon":
        out = colon_ideal(handle("ideal"), ring.parse(payload["element"]), budgets)
        return Report("ideal", "pass", result={
            "generators": _render_basis(ring, out.canonical_basis(budgets))})
    raise ParseError(f"unknown ideal op {op!r}")


def _run_open(payload: Dict, budgets: Budgets) -> Report:
    op = payload.get("op", "contains")
    if op == "enumerate-spec":
        from .topology import enumerate_spec

        R = _finite_ring_from_json(payload["finite_ring"])
        primes = enumerate_spec(R, budgets)
        return Report("open", "pass", result={
            "count": len(primes),
            "primes": [sorted(map(repr, p)) for p in primes]},
            config={"ring": R.name})
    from .topology import (OpenCover, coordinate_ring, cover_check,
                           open_contains, open_equal, open_intersect)

    ring = _ring_from_json(payload.get("ring", {}))
    if op == "cover-check":
        cover = OpenCover(_open_from_json(ring, payload["target"]),
                          tuple(_opens_from_json(ring, payload, "pieces")))
        return _bool_report("open", cover_check(cover, budgets))
    if op == "coordinate-ring":
        u = _open_from_json(ring, payload["open"])
        ru = coordinate_ring(u, budgets)
        return Report("open", "pass", result={"ring": ru.describe()})
    a = _open_from_json(ring, payload["a"])
    b = _open_from_json(ring, payload["b"])
    if op == "contains":
        return _bool_report("open", open_contains(a, b, budgets))
    if op == "equal":
        return _bool_report("open", open_equal(a, b, budgets))
    if op == "intersect":
        return Report("open", "pass",
                      result={"f": ring.render(open_intersect(a, b).f)})
    raise ParseError(f"unknown open op {op!r}")


def _zz_data_from_json(payload: Dict) -> ZZSheafData:
    from .digraph import ZZSheafData
    from .topology import FiniteSpace

    space_desc = payload.get("space", {})
    points = space_desc.get("points", [])
    below = [tuple(pair) for pair in space_desc.get("below", [])]
    space = FiniteSpace(points, below)
    assignment = {frozenset(entry["open"]): _int(entry["n"], "n")
                  for entry in payload.get("assignment", [])}
    return ZZSheafData(space, assignment)


def _run_digraph_validate(payload: Dict, budgets: Budgets) -> Report:
    op = payload.get("op", "validate")
    if op == "count-space":
        from .digraph import count_digraph_space

        R = _finite_ring_from_json(payload["finite_ring"])
        count = count_digraph_space(R, budgets)
        return Report("digraph-validate", "pass", result={"count": count},
                      config={"ring": R.name})
    if op == "zz-extract":
        from .digraph import extract_zz_digraph, zz_sheaf_value

        data = _zz_data_from_json(payload)
        out = extract_zz_digraph(data)
        regenerated = all(
            zz_sheaf_value(out, U) == data.assignment[frozenset(U)]
            for U in data.space.connected_opens())
        return _bool_report("digraph-validate", regenerated, result={
            "nodes": [{"open": sorted(n[0]), "n": n[1]} for n in out.nodes],
            "edges": [list(e) for e in out.edges],
            "regenerates": regenerated})
    ring, d = _digraph_from_json(payload.get("digraph", payload), budgets)
    if op == "clear-denominators":
        return Report("digraph-validate", "pass", result=_digraph_to_json(d))
    if op == "validate":
        from .digraph import validate_digraph

        report = validate_digraph(d, budgets)
        return _bool_report("digraph-validate", report.valid,
                            result=report.as_dict(),
                            witness=report.witnesses or None)
    raise ParseError(f"unknown digraph-validate op {op!r}")


def _run_digraph_eval(payload: Dict, budgets: Budgets) -> Report:
    ring, d = _digraph_from_json(payload.get("digraph", payload), budgets)
    op = payload.get("op", "evaluate")
    if op == "quasi-coherent":
        from .digraph import is_quasi_coherent

        basis = _opens_from_json(ring, payload, "basis")
        return _bool_report("digraph-eval",
                            is_quasi_coherent(d, basis, budgets))
    u = _open_from_json(ring, payload["open"])
    if op == "evaluate":
        from .digraph import evaluate_sheaf

        result = evaluate_sheaf(d, u, budgets)
        return Report("digraph-eval", "pass", result={
            "open": ring.render(u.f),
            "generators": _render_basis(ring, result.generators)})
    if op == "membership":
        from .digraph import section_membership

        num = ring.parse(payload["numerator"])
        den = (ring.parse(payload["denominator"])
               if "denominator" in payload else None)
        value = section_membership(d, u, num, den, budgets)
        return _bool_report("digraph-eval", value)
    raise ParseError(f"unknown digraph-eval op {op!r}")


def _run_digraph_extract(payload: Dict, budgets: Budgets) -> Report:
    from .digraph import digraph_oracle, extract_digraph, quasi_coherent_oracle

    desc = payload.get("oracle", {})
    kind = desc.get("kind", "quasi-coherent")
    if kind == "quasi-coherent":
        ring = _ring_from_json(desc.get("ring", {}))
        handle = _ideal_from_json(ring, desc, "ideal")
        basis = _opens_from_json(ring, payload, "basis")
        oracle = quasi_coherent_oracle(handle, basis, budgets)
    elif kind == "digraph":
        ring, d = _digraph_from_json(desc.get("digraph", {}), budgets)
        basis = _opens_from_json(ring, payload, "basis")
        oracle = digraph_oracle(d, basis, budgets)
    else:
        raise ParseError(f"unknown oracle kind {kind!r}")
    out = extract_digraph(oracle, budgets)
    return Report("digraph-extract", "pass", result=_digraph_to_json(out))


def _run_cech_affine(payload: Dict, budgets: Budgets) -> Report:
    from .cech import AffineWindow, affine_vanishing_check, cech_complex_affine
    from .topology import OpenCover

    ring = _ring_from_json(payload.get("ring", {}))
    handle = _ideal_from_json(ring, payload, "ideal")
    cover_desc = payload.get("cover", {})
    cover = OpenCover(_open_from_json(ring, cover_desc.get("target", "1")),
                      tuple(_opens_from_json(ring, cover_desc, "pieces")))
    wdesc = payload.get("window", {})
    window = AffineWindow(
        base_degree=_int(wdesc.get("base_degree", 8), "base_degree"),
        denominator_exponent=_int(wdesc.get("denominator_exponent", 3),
                                  "denominator_exponent"))
    op = payload.get("op", "complex")
    if op == "vanishing":
        value = affine_vanishing_check(ring, handle, cover, window, budgets)
        return _bool_report("cech-affine", value,
                            config={"window": window.__dict__})
    complex_ = cech_complex_affine(ring, handle, cover, window, budgets)
    return Report("cech-affine", "pass", result={
        "dims": complex_.dims,
        "cohomology": complex_.cohomology_dims(),
        "d_squared_zero": complex_.verify_d_squared()},
        config={"window": complex_.window})


def _run_cech_projective(payload: Dict, budgets: Budgets) -> Report:
    from .cech import TwistData, twisted_cohomology_dims

    window = payload.get("window")
    t = TwistData(_int(payload["n"], "n"), _int(payload["d"], "d"),
                  None if window is None else _int(window, "window"))
    charts = payload.get("charts")
    if charts is not None:
        charts = [frozenset(_list(c, "charts", int))
                  for c in _list(charts, "charts", list)]
    dims = twisted_cohomology_dims(t, charts, budgets)
    return Report("cech-projective", "pass",
                  result={f"H{i}": dims[i] for i in sorted(dims)},
                  config={"n": t.n, "d": t.d,
                          "window": t.effective_window()})


def _run_baer(payload: Dict, budgets: Budgets) -> Report:
    R = _finite_ring_from_json(payload.get("finite_ring", {"zmod": 4}))
    op = payload.get("op", "test")
    if op == "direct-sum":
        from .finite import direct_sum

        modules = [_module_from_json(R, m)
                   for m in _list(payload.get("modules", []), "modules", dict)]
        out = direct_sum(modules, budgets)
        return Report("baer", "pass",
                      result={"size": out.module.size},
                      config={"ring": R.name})
    if op == "hom-from-ideal":
        from .finite import hom_from_ideal

        M = _module_from_json(R, payload.get("module", {}))
        ideal = frozenset(_finite_element(R, v) for v in payload["ideal"])
        homs = hom_from_ideal(R, ideal, M, budgets)
        return Report("baer", "pass", result={"count": len(homs)},
                      config={"ring": R.name})
    from .baer import (baer_chain, baer_step, baer_test,
                       injective_envelope_bruteforce)

    M = _module_from_json(R, payload.get("module", {}))
    if op == "test":
        rep = baer_test(M, budgets)
        return _bool_report("baer", rep.injective, result=rep.as_dict(),
                            config={"ring": R.name, "module_size": M.size})
    if op == "step":
        step = baer_step(M, budgets)
        return Report("baer", "pass", result={
            "input_size": M.size, "output_size": step.output_size,
            "slots": len(step.ledger)}, config={"ring": R.name})
    if op == "chain":
        K = _int(payload.get("K", 1), "K")
        chain = baer_chain(M, K, budgets)
        return _bool_report("baer", chain.verified, result={
            "stage_sizes": [getattr(s, "size", None) for s in chain.stages],
            "verified": chain.verified, "stalled_at": chain.stalled_at},
            config={"ring": R.name, "K": K})
    if op == "envelope":
        bound = _int(payload.get("bound", 256), "bound")
        env = injective_envelope_bruteforce(M, bound, budgets)
        return _bool_report("baer", env is not None, result={
            "found": env is not None,
            "size": env.size if env is not None else None},
            config={"ring": R.name, "bound": bound})
    raise ParseError(f"unknown baer op {op!r}")


def _run_etale(payload: Dict, budgets: Budgets) -> Report:
    from .tower import (pullback_strictness, properness_and_maximality,
                        run_tower_suite, tower_ring, verify_cover_map)

    field = _field_from_json(payload.get("field", "q"))
    rule = payload.get("rule", "power")
    op = payload.get("op", "suite")
    config = {"field": field.describe(), "rule": rule}
    if op == "suite":
        depth = _int(payload.get("depth", 3), "depth")
        rep = run_tower_suite(depth, field, rule, budgets)
        return _bool_report("etale", rep.ok, result=rep.as_dict(),
                            config=config)
    n = _int(payload.get("n", payload.get("depth", 1)), "n")
    if op == "level":
        level = tower_ring(n, field, rule)
        return Report("etale", "pass",
                      result={"description": level.describe()}, config=config)
    if op == "cover-map":
        rep = verify_cover_map(tower_ring(n - 1, field, rule),
                               tower_ring(n, field, rule), budgets)
        return _bool_report("etale", rep.ok, result=rep.as_dict(),
                            config=config)
    if op == "strictness":
        rep = pullback_strictness(n, field, rule, budgets)
        return _bool_report("etale", rep.ok, result=rep.as_dict(),
                            config=config)
    if op == "maximality":
        rep = properness_and_maximality(n, field, rule, budgets)
        return _bool_report("etale", rep.ok, result=rep.as_dict(),
                            config=config)
    raise ParseError(f"unknown etale op {op!r}")


def _run_suite(payload: Dict, budgets: Budgets) -> Report:
    from .acceptance import run_acceptance
    results = run_acceptance(budgets)
    all_ok = all(r.passed for r in results)
    return _bool_report("suite", all_ok, result={
        "criteria": [{"name": r.name, "passed": r.passed,
                      "detail": r.detail, "seconds": round(r.seconds, 2)}
                     for r in results]})


_DISPATCH: Dict[str, Callable[[Dict, Budgets], Report]] = {
    "groebner": _run_groebner,
    "ideal": _run_ideal,
    "open": _run_open,
    "digraph-validate": _run_digraph_validate,
    "digraph-eval": _run_digraph_eval,
    "digraph-extract": _run_digraph_extract,
    "cech-affine": _run_cech_affine,
    "cech-projective": _run_cech_projective,
    "baer": _run_baer,
    "etale": _run_etale,
    "suite": _run_suite,
}


def run_job(job: JobSpec) -> Report:
    handler = _DISPATCH.get(job.command)
    if handler is None:
        raise ParseError(f"unknown command {job.command!r}")
    started = time.perf_counter()
    try:
        report = handler(job.payload, job.budgets)
    except (ParseError, DomainError) as exc:
        report = Report(job.command, "error", result={"error": str(exc)},
                        config={"exit_code": EXIT_PARSE,
                                "error_type": type(exc).__name__})
    except (CapabilityError, ResourceBudgetError) as exc:
        report = Report(job.command, "error", result={"error": str(exc)},
                        config={"exit_code": EXIT_RESOURCE,
                                "error_type": type(exc).__name__})
    except (ValidationError, OracleError) as exc:
        report = Report(job.command, "fail", result={"error": str(exc)},
                        witness=getattr(exc, "witness", None),
                        config={"exit_code": EXIT_FAIL,
                                "error_type": type(exc).__name__})
    report.timings["seconds"] = round(time.perf_counter() - started, 6)
    return report
