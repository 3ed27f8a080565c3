"""Job parsing and dispatch: JSON in, deterministic report out.

A job names one of the CLI commands plus a payload, checked against the
command's schema in ``SCHEMAS`` before its handler runs.  Reports carry a
status (pass / fail / error), the structured result, any witness, and a
configuration echo; timings live in their own field so the rest of the
report is byte-identical across runs.

Each handler imports the layers it uses when it runs, in the branch that
uses them, and the layers import one another where they need to, so a CLI
process loads only the modules its job runs: a ``cech-projective`` job
loads ``cech`` and ``fields`` and no ring layer, and only a job that builds
a finite ring loads ``finite`` (``tests/test_univar.py`` pins the set per
command).  ``JobSpec`` and ``Report`` are plain classes, as every record of
the package is, so no job imports ``dataclasses``.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from .config import Budgets, DEFAULT_BUDGETS, Record
from .errors import (BoundExceededError, CapabilityError, DomainError,
                     OracleError, ParseError, ResourceBudgetError,
                     ValidationError)

if TYPE_CHECKING:
    from .digraph import IdealDigraph
    from .fields import FieldSpec
    from .finite import FiniteModule, FiniteRing
    from .rings import IdealHandle, PresentedRing
    from .topology import DistinguishedOpen

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# Payload schema
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a key that a payload must give


class Variants(dict):
    """Schemas for one JSON object, picked by the string at its key ``tag``
    (the first schema when that key is absent)."""

    def __init__(self, tag: str, variants: Dict[str, Dict]):
        super().__init__(variants)
        self.tag = tag


RING = {"field": (str, "q"), "vars": ([str], ["x"]), "quotient": ([str], []),
        "inverted": ([str], [])}
OPEN = str  # a polynomial text f, naming D(f)
ELEMENT = (int, [int])  # an element of Z/n, or of F_p[x]/(f) as coefficients
FINITE_RING = {"zmod": (int, None),
               "gf_quotient": ({"p": (int, REQUIRED), "modulus": ([int], REQUIRED)}, None)}
_RANK = {"rank": (int, 1)}
MODULE = Variants("kind", {"ring": {}, "zero": {}, "free": _RANK,
                           "quotient": {**_RANK, "relations": ([[ELEMENT]], [])},
                           "submodule": {**_RANK, "generators": ([[ELEMENT]], [])}})
NODE = {"open": (OPEN, REQUIRED), "gens": ([str], []),
        "fractions": ([{"num": (str, REQUIRED), "den": (str, "1")}], [])}
DIGRAPH = {"ring": (RING, {}), "nodes": ([NODE], []), "edges": ([[int]], []), "root": (int, 0)}

_TEXT, _TEXTS, _ON_RING = (str, REQUIRED), ([str], []), {"ring": (RING, {})}
_ON_FINITE = {"finite_ring": (FINITE_RING, REQUIRED)}
_ON_DIGRAPH = {"digraph": (DIGRAPH, REQUIRED)}
_ON_MODULE = {"finite_ring": (FINITE_RING, {"zmod": 4}), "module": (MODULE, {})}
_MEMBER = {**_ON_RING, "ideal": _TEXTS, "element": _TEXT}
_IDEALS = {**_ON_RING, "left": _TEXTS, "right": _TEXTS}
_OPENS = {**_ON_RING, "a": (OPEN, REQUIRED), "b": (OPEN, REQUIRED)}
_AT_OPEN = {**_ON_DIGRAPH, "open": (OPEN, REQUIRED)}
_AFFINE = {**_ON_RING, "ideal": _TEXTS,
           "cover": ({"target": (OPEN, "1"), "pieces": ([OPEN], [])}, {}),
           "window": ({"base_degree": (int, 8), "denominator_exponent": (int, 3)}, {})}
_TOWER = {"field": (str, "q"), "rule": (str, "power")}
_LEVEL = {**_TOWER, "depth": (int, 1)}

# Every key a command takes, as {key: (kind, default)}, or such a schema per
# op.  A kind is a JSON type (int, str), [kind] for a list of them, a
# tuple of alternatives of distinct JSON types, a schema, or Variants.
SCHEMAS: Dict[str, Dict] = {
    "groebner": {**_ON_RING, "generators": _TEXTS},
    "ideal": Variants("op", {
        "membership": _MEMBER, "radical-membership": _MEMBER, "equal": _IDEALS,
        "contains": _IDEALS, "combine": {**_IDEALS, "mode": (str, "sum")},
        "saturate": {**_ON_RING, "ideal": _TEXTS, "f": _TEXT}, "colon": _MEMBER,
        "enumerate-ideals": _ON_FINITE,
        "noetherian-witness": {**_ON_FINITE, "chain": ([[ELEMENT]], [])}}),
    "open": Variants("op", {
        "contains": _OPENS, "equal": _OPENS, "intersect": _OPENS,
        "cover-check": {**_ON_RING, "target": (OPEN, REQUIRED), "pieces": ([OPEN], [])},
        "coordinate-ring": {**_ON_RING, "open": (OPEN, REQUIRED)},
        "enumerate-spec": _ON_FINITE}),
    "digraph-validate": Variants("op", {
        "validate": _ON_DIGRAPH, "clear-denominators": _ON_DIGRAPH,
        "count-space": _ON_FINITE,
        "zz-extract": {"space": ({"points": ([int], []), "below": ([[int]], [])}, {}),
                       "assignment": ([{"open": ([int], REQUIRED), "n": (int, REQUIRED)}],
                                      [])}}),
    "digraph-eval": Variants("op", {
        "evaluate": _AT_OPEN,
        "membership": {**_AT_OPEN, "numerator": _TEXT, "denominator": (str, None)},
        "quasi-coherent": {**_ON_DIGRAPH, "basis": ([OPEN], [])}}),
    "digraph-extract": {"oracle": (Variants("kind", {
        "quasi-coherent": {**_ON_RING, "ideal": _TEXTS}, "digraph": _ON_DIGRAPH}), {}),
        "basis": ([OPEN], [])},
    "cech-affine": Variants("op", {"complex": _AFFINE, "vanishing": _AFFINE}),
    "cech-projective": {"n": (int, REQUIRED), "d": (int, REQUIRED)},
    "baer": Variants("op", {
        "test": _ON_MODULE, "step": _ON_MODULE, "chain": {**_ON_MODULE, "K": (int, 1)},
        "envelope": _ON_MODULE,
        "direct-sum": {"finite_ring": _ON_MODULE["finite_ring"], "modules": ([MODULE], [])},
        "hom-from-ideal": {**_ON_MODULE, "ideal": ([ELEMENT], REQUIRED)}}),
    "etale": Variants("op", {"suite": {**_TOWER, "depth": (int, 3)}, "level": _LEVEL,
                             "cover-map": _LEVEL, "strictness": _LEVEL, "maximality": _LEVEL}),
    "suite": {},
}
COMMANDS = tuple(SCHEMAS)
_TYPE_NAMES = {int: "an integer", str: "a string", list: "a JSON list", dict: "a JSON object"}


def _json_type(kind) -> type:
    return dict if isinstance(kind, dict) else list if isinstance(kind, list) else kind


def _check(value, kind, key: str):
    """``value`` checked against ``kind`` (see ``SCHEMAS``), with each key it
    lacks filled in from its default; a value of another kind, a missing
    required key or an unknown key is a ParseError naming the key."""
    alternatives = kind if isinstance(kind, tuple) else (kind,)
    kind = next((k for k in alternatives if _json_type(k) is type(value)), None)
    if kind is None:
        expected = " or ".join(_TYPE_NAMES[_json_type(k)] for k in alternatives)
        raise ParseError(f"{key!r} must be {expected}, got {value!r}")
    if isinstance(kind, list):
        return [_check(item, kind[0], key) for item in value]
    if isinstance(kind, Variants):
        tag = value.get(kind.tag, next(iter(kind)))
        if type(tag) is not str or tag not in kind:
            raise ParseError(f"unknown {key} {kind.tag} {tag!r}")
        kind = {kind.tag: (str, tag), **kind[tag]}
    if not isinstance(kind, dict):
        return value
    unknown = [name for name in value if name not in kind]
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r} in {key!r}")
    out = {}
    for name, (sub, default) in kind.items():
        if name in value:
            out[name] = _check(value[name], sub, name)
        elif default is REQUIRED:
            raise ParseError(f"missing required key {name!r}")
        else:
            out[name] = default if default is None else _check(default, sub, name)
    return out


class JobSpec(Record):
    def __init__(self, command: str, payload: Dict[str, Any],
                 budgets: Budgets = DEFAULT_BUDGETS):
        self.command = command
        self.payload = payload
        self.budgets = budgets


class Report(Record):
    def __init__(self, command: str, status: str, result: Any = None, witness: Any = None,
                 config: Dict[str, Any] = None, timings: Dict[str, float] = None):
        self.command = command
        self.status = status  # pass | fail | error
        self.result = result
        self.witness = witness
        self.config = {} if config is None else config
        self.timings = {} if timings is None else timings

    @property
    def exit_code(self) -> int:
        if self.status == "pass":
            return EXIT_PASS
        if self.status == "fail":
            return EXIT_FAIL
        return self.config.get("exit_code", EXIT_RESOURCE)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.__dict__)

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

def decode_object(text: str, what: str) -> Dict[str, Any]:
    """Decode a JSON document that must be an object; every defect of the
    text is a ParseError (``what`` names the document in messages)."""
    if not text.strip():
        raise ParseError(f"empty {what} input")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON {what}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except (RecursionError, ValueError):  # nesting or an integer past Python's limits
        raise ParseError(f"invalid JSON {what}: nested too deeply or integer too long") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    return doc


def load_job(command: Any, payload: Any, budgets: Any = {}) -> JobSpec:
    """The one way in, for the CLI and ``parse_job``: the command, the payload
    object and the ``budgets`` overrides checked, the environment's applied
    and then the job's."""
    if command not in COMMANDS:
        raise ParseError(f"unknown command {command!r}; "
                         f"expected one of {', '.join(COMMANDS)}")
    for what, value in (("payload", payload), ("budgets", budgets)):
        if not isinstance(value, dict):
            raise ParseError(f"{what} must be a JSON object")
    overrides = Budgets.checked(budgets)
    return JobSpec(command, payload, Budgets.from_env().replace(**overrides))


def parse_job(text: str) -> JobSpec:
    """A whole job document {"command": ..., "payload": {...}, "budgets": {...}}."""
    doc = decode_object(text, "job")
    unknown = [key for key in doc if key not in ("command", "payload", "budgets")]
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r} in 'job'")
    return load_job(doc.get("command"), doc.get("payload", {}), doc.get("budgets", {}))


def _field_from_json(desc: str) -> FieldSpec:
    from .fields import GF, QQ

    if desc == "q":
        return QQ
    if desc.startswith("fp:") and desc[3:].isdecimal():
        try:
            return GF(int(desc[3:]))
        except ValueError:  # past Python's limit on digits converted
            raise ParseError("'field' modulus has too many digits") from None
    raise ParseError(f"unknown field descriptor {desc!r} for 'field'; "
                     "use 'q' or 'fp:<p>'")


def _ring_from_json(desc: Dict[str, Any], budgets: Budgets) -> PresentedRing:
    from .rings import PresentedRing

    field, vars_ = _field_from_json(desc["field"]), tuple(desc["vars"])
    if len(set(vars_)) < len(vars_):
        raise ParseError(f"'vars' must not repeat a name, got {desc['vars']!r}")
    base = PresentedRing(field, vars_)
    quotient = tuple(base.parse(s, budgets) for s in desc["quotient"])
    inverted = tuple(base.parse(s, budgets) for s in desc["inverted"])
    ring = PresentedRing(field, vars_, quotient, inverted)
    # Only a quotient (with an inverted zero divisor of it) can give the zero ring.
    if quotient and ring.ideal().is_unit_ideal(budgets):
        raise DomainError(f"{ring.describe()} is the zero ring")
    return ring


def _bounded(base: int, exp: int, what: str, budgets: Budgets) -> None:
    """Refuse a finite ring or module of base^exp elements, before it is
    built, if that exceeds ``budgets.finite_ring_bound``.  An exponent past
    the bound's bit length already exceeds it, so no huge power is formed."""
    bound = budgets.finite_ring_bound
    if base ** min(exp, bound.bit_length()) > bound:
        raise BoundExceededError("finite_ring_bound", bound, f"{what} has more than "
                                 f"{bound} elements (budget 'finite_ring_bound')")


def _finite_ring_from_json(desc: Dict[str, Any], budgets: Budgets) -> FiniteRing:
    from .finite import gf_poly_quotient, zmod

    if (desc["zmod"] is None) == (desc["gf_quotient"] is None):
        raise ParseError("finite ring descriptor needs exactly one of 'zmod' and 'gf_quotient'")
    if desc["zmod"] is not None:
        _bounded(desc["zmod"], 1, f"Z/{desc['zmod']}", budgets)
        return zmod(desc["zmod"])
    p, modulus = desc["gf_quotient"]["p"], desc["gf_quotient"]["modulus"]
    deg = max((i for i, c in enumerate(modulus) if p and c % p), default=0)
    # Below degree 1, gf_poly_quotient refuses the modulus.
    _bounded(p, max(deg, 1), f"F{p}[x] modulo a polynomial of degree {deg}", budgets)
    return gf_poly_quotient(p, modulus)


def _finite_element(R: FiniteRing, value):
    elt = tuple(value) if isinstance(value, list) else value
    if elt not in R.elements:
        raise ParseError(f"{value!r} is not an element of {R.name}")
    return elt


def _module_from_json(R: FiniteRing, desc: Dict[str, Any],
                      budgets: Budgets) -> FiniteModule:
    from .finite import (free_module, quotient_module, ring_as_module, span,
                         submodule, zero_module)

    kind = desc["kind"]
    if kind in ("ring", "zero"):
        return ring_as_module(R) if kind == "ring" else zero_module(R)
    rank = desc["rank"]
    if rank < 0:
        raise ParseError(f"'rank' must be nonnegative, got {rank}")
    _bounded(R.size, rank, f"{R.name}^{rank}", budgets)
    free = free_module(R, rank)
    if kind == "free":
        return free
    key = "relations" if kind == "quotient" else "generators"
    gens = []
    for vec in desc[key]:
        if len(vec) != rank:
            raise ParseError(f"{key!r} vector {vec!r} must have length rank = {rank}")
        gens.append(tuple(_finite_element(R, v) for v in vec))
    build = quotient_module if kind == "quotient" else submodule
    return build(free, span(free, gens))


def _open_from_json(ring: PresentedRing, text: str, budgets: Budgets) -> DistinguishedOpen:
    from .topology import DistinguishedOpen

    return DistinguishedOpen(ring, ring.parse(text, budgets))


def _ideal_from_json(ring: PresentedRing, texts: List[str], budgets: Budgets) -> IdealHandle:
    return ring.ideal([ring.parse(s, budgets) for s in texts])


def _pairs(value: List[List[int]], key: str) -> Tuple[Tuple[int, int], ...]:
    if any(len(pair) != 2 for pair in value):
        raise ParseError(f"{key!r} entries must be pairs, got {value!r}")
    return tuple(tuple(pair) for pair in value)


def _digraph_from_json(desc: Dict[str, Any],
                       budgets: Budgets) -> Tuple[PresentedRing, IdealDigraph]:
    """Every node through ``clear_denominators``, each of its ``gens`` g as g/1."""
    from .digraph import clear_denominators

    ring = _ring_from_json(desc["ring"], budgets)
    edges = _pairs(desc["edges"], "edges")
    nodes = []
    for node in desc["nodes"]:
        u = _open_from_json(ring, node["open"], budgets)
        fracs = [(ring.parse(fr["num"], budgets), ring.parse(fr["den"], budgets))
                 for fr in node["fractions"]]
        nodes.append((u, fracs + [(ring.parse(g, budgets), ring.one()) for g in node["gens"]]))
    return ring, clear_denominators(ring, nodes, edges, desc["root"], budgets)


def _digraph_to_json(d: IdealDigraph) -> Dict[str, Any]:
    return {
        "nodes": [{"open": d.ring.render(n.open.f),
                   "gens": [d.ring.render(g) for g in n.gens]}
                  for n in d.nodes],
        "edges": [list(e) for e in d.edges],
        "root": d.root,
    }


def _bool_report(command: str, value: bool, result: Any = None,
                 witness: Any = None, config: Optional[Dict] = None) -> Report:
    return Report(command, "pass" if value else "fail",
                  result=result if result is not None else {"value": value},
                  witness=witness, config=config or {})


# ---------------------------------------------------------------------------
# Command handlers: each takes a payload already checked against SCHEMAS
# ---------------------------------------------------------------------------

def _run_groebner(payload: Dict, budgets: Budgets) -> Report:
    from .rings import op_groebner_basis

    ring = _ring_from_json(payload["ring"], budgets)
    handle = _ideal_from_json(ring, payload["generators"], budgets)
    basis = op_groebner_basis(handle, budgets)
    return Report("groebner", "pass",
                  result={"basis": [ring.render(g) for g in basis],
                          "canonical": bool(ring.inverted)},
                  config={"ring": ring.describe()})


def _run_ideal(payload: Dict, budgets: Budgets) -> Report:
    op = payload["op"]
    if op in ("enumerate-ideals", "noetherian-witness"):
        from .finite import enumerate_ideals, noetherian_witness

        R = _finite_ring_from_json(payload["finite_ring"], budgets)
        if op == "enumerate-ideals":
            ideals = enumerate_ideals(R, budgets)
            return Report("ideal", "pass", result={
                "count": len(ideals),
                "ideals": [sorted(map(repr, i)) for i in ideals]},
                config={"ring": R.name})
        chain = [frozenset(_finite_element(R, v) for v in entry)
                 for entry in payload["chain"]]
        rep = noetherian_witness(R, chain, budgets)
        return _bool_report("ideal", rep.ok, result={
            "generator_lists": [sorted(map(repr, g))
                                for g in rep.generator_lists],
            "max_strict_chain": rep.max_strict_chain,
            "ideal_count_bound": rep.ideal_count_bound,
            "ok": rep.ok}, config={"ring": R.name})

    from .rings import (colon_ideal, ideal_combine, ideal_contains, ideal_equal,
                        ideal_membership, radical_membership, saturate)

    ring = _ring_from_json(payload["ring"], budgets)

    def handle(key: str) -> IdealHandle:
        return _ideal_from_json(ring, payload[key], budgets)

    if op in ("membership", "radical-membership"):
        member = ideal_membership if op == "membership" else radical_membership
        return _bool_report("ideal", member(ring.parse(payload["element"], budgets),
                                            handle("ideal"), budgets))
    if op in ("equal", "contains"):
        compare = ideal_equal if op == "equal" else ideal_contains
        return _bool_report("ideal", compare(handle("left"), handle("right"), budgets))
    if op == "combine":
        out = ideal_combine(payload["mode"], handle("left"), handle("right"), budgets)
    elif op == "saturate":
        out = saturate(handle("ideal"), ring.parse(payload["f"], budgets), budgets)
    else:
        out = colon_ideal(handle("ideal"), ring.parse(payload["element"], budgets), budgets)
    result = {"mode": payload["mode"]} if op == "combine" else {}
    result["generators"] = [ring.render(g) for g in out.canonical_basis(budgets)]
    return Report("ideal", "pass", result=result)


def _run_open(payload: Dict, budgets: Budgets) -> Report:
    op = payload["op"]
    if op == "enumerate-spec":
        from .topology import enumerate_spec

        R = _finite_ring_from_json(payload["finite_ring"], budgets)
        primes = enumerate_spec(R, budgets)
        return Report("open", "pass", result={
            "count": len(primes),
            "primes": [sorted(map(repr, p)) for p in primes]},
            config={"ring": R.name})
    from .topology import (OpenCover, coordinate_ring, cover_check,
                           open_contains, open_equal, open_intersect)

    ring = _ring_from_json(payload["ring"], budgets)
    if op == "cover-check":
        cover = OpenCover(_open_from_json(ring, payload["target"], budgets),
                          tuple(_open_from_json(ring, u, budgets) for u in payload["pieces"]))
        return _bool_report("open", cover_check(cover, budgets))
    if op == "coordinate-ring":
        u = _open_from_json(ring, payload["open"], budgets)
        ru = coordinate_ring(u, budgets)
        return Report("open", "pass", result={"ring": ru.describe()})
    a = _open_from_json(ring, payload["a"], budgets)
    b = _open_from_json(ring, payload["b"], budgets)
    if op == "intersect":
        return Report("open", "pass", result={"f": ring.render(open_intersect(a, b).f)})
    compare = open_contains if op == "contains" else open_equal
    return _bool_report("open", compare(a, b, budgets))


def _run_digraph_validate(payload: Dict, budgets: Budgets) -> Report:
    op = payload["op"]
    if op == "count-space":
        from .digraph import count_digraph_space

        R = _finite_ring_from_json(payload["finite_ring"], budgets)
        return Report("digraph-validate", "pass",
                      result={"count": count_digraph_space(R, budgets)},
                      config={"ring": R.name})
    if op == "zz-extract":
        from .digraph import ZZSheafData, extract_zz_digraph, zz_sheaf_value
        from .topology import FiniteSpace

        space = FiniteSpace(payload["space"]["points"],
                            _pairs(payload["space"]["below"], "below"))
        assignment = {}
        for entry in payload["assignment"]:
            U = frozenset(entry["open"])
            if U in assignment or not U <= space.whole():
                problem = "repeats an open" if U in assignment else "names a non-point"
                raise ParseError(f"'assignment' open {entry['open']!r} {problem}")
            assignment[U] = entry["n"]
        data = ZZSheafData(space, assignment)
        out = extract_zz_digraph(data)
        regenerated = all(
            zz_sheaf_value(out, U) == data.assignment[frozenset(U)]
            for U in data.space.connected_opens())
        return _bool_report("digraph-validate", regenerated, result={
            "nodes": [{"open": sorted(n[0]), "n": n[1]} for n in out.nodes],
            "edges": [list(e) for e in out.edges],
            "regenerates": regenerated})
    ring, d = _digraph_from_json(payload["digraph"], budgets)
    if op == "clear-denominators":
        return Report("digraph-validate", "pass", result=_digraph_to_json(d))
    from .digraph import validate_digraph

    report = validate_digraph(d, budgets)
    return _bool_report("digraph-validate", report.valid,
                        result=report.as_dict(),
                        witness=report.witnesses or None)


def _run_digraph_eval(payload: Dict, budgets: Budgets) -> Report:
    ring, d = _digraph_from_json(payload["digraph"], budgets)
    op = payload["op"]
    if op == "quasi-coherent":
        from .digraph import is_quasi_coherent

        basis = [_open_from_json(ring, u, budgets) for u in payload["basis"]]
        return _bool_report("digraph-eval",
                            is_quasi_coherent(d, basis, budgets))
    u = _open_from_json(ring, payload["open"], budgets)
    if op == "evaluate":
        from .digraph import evaluate_sheaf

        result = evaluate_sheaf(d, u, budgets)
        return Report("digraph-eval", "pass", result={
            "open": ring.render(u.f),
            "generators": [ring.render(g) for g in result.generators]})
    from .digraph import section_membership

    den = payload["denominator"]
    value = section_membership(d, u, ring.parse(payload["numerator"], budgets),
                               None if den is None else ring.parse(den, budgets), budgets)
    return _bool_report("digraph-eval", value)


def _run_digraph_extract(payload: Dict, budgets: Budgets) -> Report:
    from .digraph import digraph_oracle, extract_digraph, quasi_coherent_oracle

    desc = payload["oracle"]
    if desc["kind"] == "quasi-coherent":
        ring = _ring_from_json(desc["ring"], budgets)
        make, source = quasi_coherent_oracle, _ideal_from_json(ring, desc["ideal"], budgets)
    else:
        make, (ring, source) = digraph_oracle, _digraph_from_json(desc["digraph"], budgets)
    basis = [_open_from_json(ring, u, budgets) for u in payload["basis"]]
    out = extract_digraph(make(source, basis, budgets), budgets)
    return Report("digraph-extract", "pass", result=_digraph_to_json(out))


def _run_cech_affine(payload: Dict, budgets: Budgets) -> Report:
    from .cech import AffineWindow, affine_vanishing_check, cech_complex_affine
    from .topology import OpenCover

    ring = _ring_from_json(payload["ring"], budgets)
    handle = _ideal_from_json(ring, payload["ideal"], budgets)
    cover = OpenCover(_open_from_json(ring, payload["cover"]["target"], budgets),
                      tuple(_open_from_json(ring, u, budgets) for u in payload["cover"]["pieces"]))
    window = AffineWindow(**payload["window"])
    if payload["op"] == "vanishing":
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

    t = TwistData(payload["n"], payload["d"])
    dims = twisted_cohomology_dims(t)
    return Report("cech-projective", "pass",
                  result={f"H{i}": dims[i] for i in sorted(dims)},
                  config={"n": t.n, "d": t.d, "window": t.window})


def _run_baer(payload: Dict, budgets: Budgets) -> Report:
    R = _finite_ring_from_json(payload["finite_ring"], budgets)
    op = payload["op"]
    if op == "direct-sum":
        from .finite import direct_sum

        modules = [_module_from_json(R, m, budgets) for m in payload["modules"]]
        out = direct_sum(modules, budgets)
        return Report("baer", "pass", result={"size": out.module.size},
                      config={"ring": R.name})
    M = _module_from_json(R, payload["module"], budgets)
    if op == "hom-from-ideal":
        from .finite import hom_from_ideal

        ideal = frozenset(_finite_element(R, v) for v in payload["ideal"])
        return Report("baer", "pass",
                      result={"count": len(hom_from_ideal(R, ideal, M, budgets))},
                      config={"ring": R.name})
    from .baer import (baer_chain, baer_step, baer_test,
                       injective_envelope_bruteforce)

    if op == "test":
        rep = baer_test(M, budgets)
        return _bool_report("baer", rep.injective, result=rep.as_dict(),
                            config={"ring": R.name, "module_size": M.size})
    if op == "step":
        step = baer_step(M, budgets)
        return Report("baer", "pass", result={
            "input_size": M.size, "output_size": step.size,
            "slots": len(step.ledger)}, config={"ring": R.name})
    if op == "chain":
        chain = baer_chain(M, payload["K"], budgets)
        return Report("baer", "pass", result={
            "stage_sizes": [s.size for s in chain.stages],
            "stalled_at": chain.stalled_at},
            config={"ring": R.name, "K": payload["K"]})
    env = injective_envelope_bruteforce(M, budgets)
    return _bool_report("baer", env is not None, result={
        "found": env is not None,
        "size": env.size if env is not None else None},
        config={"ring": R.name, "bound": budgets.finite_ring_bound})


def _run_etale(payload: Dict, budgets: Budgets) -> Report:
    from .tower import (pullback_strictness, properness_and_maximality,
                        run_tower_suite, tower_ring, verify_cover_map)

    field, rule, op, n = (_field_from_json(payload["field"]), payload["rule"],
                          payload["op"], payload["depth"])
    config = {"field": field.describe(), "rule": rule}
    if op == "suite":
        rep = run_tower_suite(n, field, rule, budgets)
        return _bool_report("etale", rep.ok, result=rep.as_dict(),
                            config=config)
    level = tower_ring(n, field, rule, budgets)
    if op == "level":
        return Report("etale", "pass",
                      result={"description": level.describe()}, config=config)
    if op == "cover-map":
        rep = verify_cover_map(tower_ring(n - 1, field, rule, budgets), level)
    elif op == "strictness":
        rep = pullback_strictness(level)
    else:
        rep = properness_and_maximality(level)
    return _bool_report("etale", rep.ok, result=rep.as_dict(), config=config)


def _run_suite(payload: Dict, budgets: Budgets) -> Report:
    from .acceptance import run_acceptance
    results = run_acceptance(budgets)
    all_ok = all(r.passed for r in results)
    return _bool_report("suite", all_ok, result={
        "criteria": [{"name": r.name, "passed": r.passed,
                      "detail": r.detail, "seconds": round(r.seconds, 2)}
                     for r in results]})


_DISPATCH: Dict[str, Callable[[Dict, Budgets], Report]] = {
    "groebner": _run_groebner, "ideal": _run_ideal, "open": _run_open,
    "digraph-validate": _run_digraph_validate, "digraph-eval": _run_digraph_eval,
    "digraph-extract": _run_digraph_extract, "cech-affine": _run_cech_affine,
    "cech-projective": _run_cech_projective, "baer": _run_baer, "etale": _run_etale,
    "suite": _run_suite}


def run_job(job: JobSpec) -> Report:
    handler = _DISPATCH.get(job.command)
    if handler is None:
        raise ParseError(f"unknown command {job.command!r}")
    started = time.perf_counter()
    try:
        payload = _check(job.payload, SCHEMAS[job.command], job.command)
        report = handler(payload, job.budgets)
    except (ParseError, DomainError, CapabilityError, ResourceBudgetError) as exc:
        code = EXIT_PARSE if isinstance(exc, (ParseError, DomainError)) else EXIT_RESOURCE
        report = Report(job.command, "error", result={"error": str(exc)},
                        config={"exit_code": code, "error_type": type(exc).__name__})
    except (ValidationError, OracleError) as exc:
        report = Report(job.command, "fail", result={"error": str(exc)},
                        witness=getattr(exc, "witness", None),
                        config={"exit_code": EXIT_FAIL,
                                "error_type": type(exc).__name__})
    report.timings["seconds"] = round(time.perf_counter() - started, 6)
    return report
