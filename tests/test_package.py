"""The package's exports: ``import noether`` binds each of its 118 names
lazily, on first use, to the object its module defines.  Also five checks
of the package source: no module imports ``dataclasses``, every budget is
read and passed on, every private helper is used, and no module keeps a
cache of answers; and how each record class builds, compares and hashes."""

import ast
import importlib
import itertools
import re
from pathlib import Path

import pytest

import noether
from noether.config import Budgets
from noether.errors import DomainError

# module -> the names ``noether`` exports from it, as the eager package did.
EXPORTS = {
    "config": "Budgets DEFAULT_BUDGETS",
    "errors": ("NoetherError ParseError DomainError ValidationError "
        "ResourceBudgetError BoundExceededError CapabilityError OracleError"),
    "fields": "FieldSpec QQ GF",
    "poly": "Polynomial MonomialOrder DegRevLex Lex BlockElim DEGREVLEX LEX",
    "parse": "parse_polynomial",
    "groebner": "groebner_basis normal_form",
    "rings": ("PresentedRing IdealHandle op_groebner_basis ideal_membership "
        "ideal_equal ideal_contains ideal_combine saturate colon_ideal "
        "radical_membership"),
    "finite": ("FiniteRing FiniteModule zmod gf_poly_quotient product_ring "
        "ideal_closure is_ideal enumerate_ideals minimal_generators "
        "is_prime_ideal NoetherianReport noetherian_witness ring_as_module "
        "zero_module submodule span enumerate_submodules quotient_module "
        "free_module direct_sum DirectSum module_generators all_homs "
        "is_linear_map hom_from_ideal"),
    "topology": ("DistinguishedOpen open_contains open_equal open_strictly_below "
        "open_intersect OpenCover cover_check coordinate_ring "
        "enumerate_spec FiniteSpace"),
    "digraph": ("DigraphNode IdealDigraph DigraphReport validate_digraph "
        "clear_denominators section_membership evaluate_sheaf SheafOracle "
        "quasi_coherent_oracle digraph_oracle extract_digraph "
        "is_quasi_coherent ZZSheafData ZZDigraph extract_zz_digraph "
        "zz_sheaf_value count_digraph_space"),
    "cech": ("CechComplex TwistData twisted_cohomology_dims AffineWindow "
        "cech_complex_affine affine_vanishing_check matrix_rank"),
    "baer": ("BaerReport baer_test LedgerEntry BaerModule baer_step "
        "BaerChain baer_chain injective_envelope_bruteforce "
        "first_principles_injective"),
    "tower": ("EXPONENT_RULES deleted_exponents TowerLevel tower_ring "
        "CoverMapReport verify_cover_map StrictnessReport "
        "pullback_strictness MaximalityReport properness_and_maximality "
        "TowerSuiteReport run_tower_suite"),
    "jobs": "JobSpec Report parse_job run_job COMMANDS",
}
NAMES = [(module, name) for module, names in EXPORTS.items()
         for name in names.split()]


def test_the_export_table_has_118_names():
    assert len(NAMES) == len({name for _, name in NAMES}) == 118
    assert sorted(noether.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module,name", NAMES)
def test_exported_name_is_the_modules_object(module, name):
    value = getattr(noether, name)
    assert value is getattr(importlib.import_module(f"noether.{module}"), name)
    assert name in dir(noether)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from noether import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"noether.{module}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        noether.no_such_name
    assert not hasattr(noether, "irreducible_factors")


def test_no_module_imports_dataclasses():
    """The records are plain classes: importing ``dataclasses`` costs a
    process 8-11 ms, and every CLI job would pay it."""
    package = Path(noether.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.stem}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_every_budget_is_read():
    """Each ``Budgets`` field is read as ``budgets.<name>`` somewhere in the
    package outside ``config.py``: a knob nothing reads is dead."""
    package = Path(noether.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "config.py":
            read.update(re.findall(r"budgets\.(\w+)", path.read_text()))
    assert set(Budgets.FIELDS) - read == set()


def _takes_budgets(fn: ast.AST) -> bool:
    args = fn.args
    return any(a.arg == "budgets" for a in args.posonlyargs + args.args + args.kwonlyargs)


def _passes_budgets(call: ast.Call) -> bool:
    values = call.args + [k.value for k in call.keywords]
    return any(isinstance(n, ast.Name) and n.id == "budgets"
               or isinstance(n, ast.Attribute) and n.attr == "budgets"
               for v in values for n in ast.walk(v))


def test_every_budgets_function_passes_its_budgets_on():
    """A function with a ``budgets`` parameter passes budgets to each package
    function or method it calls that takes them, so no answer is computed
    under the defaults behind the caller's back.  A bare name is resolved in
    its module (a def there, or what ``from .m import`` binds); ``m.f`` with
    ``m`` a package module is ``f`` there; a method call resolves to the
    methods of that name in the calling module, else in the whole package."""
    package = Path(noether.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in package.glob("*.py")}
    functions, methods = {}, {}  # module -> {name: takes budgets}
    for module, tree in trees.items():
        functions[module] = {n.name: _takes_budgets(n) for n in tree.body
                             if isinstance(n, ast.FunctionDef)}
        own = methods[module] = {}
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for n in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
                own[n.name] = own.get(n.name, False) or _takes_budgets(n)

    def imported(tree):
        names, modules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)
        return names, modules

    missed = []
    for module, tree in trees.items():
        names, modules = imported(tree)
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or not _takes_budgets(fn):
                continue
            for call in (n for n in ast.walk(fn) if isinstance(n, ast.Call)):
                f = call.func
                if isinstance(f, ast.Name):
                    home, name = names.get(f.id, (module, f.id))
                    takes = functions.get(home, {}).get(name, False)
                elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                        and f.value.id in modules:
                    takes = functions.get(f.value.id, {}).get(f.attr, False)
                elif isinstance(f, ast.Attribute):
                    if f.attr in methods[module]:
                        takes = methods[module][f.attr]
                    else:
                        takes = any(m.get(f.attr, False) for m in methods.values())
                else:
                    continue
                if takes and not _passes_budgets(call):
                    missed.append(f"{module}.{fn.name}:{call.lineno} {ast.unparse(f)}")
    assert missed == []


def test_every_private_definition_is_referenced():
    """Each private function, method or class defined in the package is
    named somewhere in the package's code, as a name or an attribute: a
    helper that nothing refers to is dead."""
    package = Path(noether.__file__).parent
    defined, used = set(), set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add((path.stem, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) > 50
    assert sorted(f"{m}.{n}" for m, n in defined if n not in used) == []


MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault", "pop",
            "popitem", "clear", "remove", "discard", "sort", "reverse"}
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def _name(node: ast.AST):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _module_caches(tree: ast.Module):
    """``lru_cache``/``cache`` decorators, and statements in a function that
    change a dict, list or set bound at module level, by its name or by a
    local name bound to it (a local of the same name does not count unless
    the function declares it ``global``)."""
    containers = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and (
                isinstance(node.value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                        ast.ListComp, ast.SetComp))
                or isinstance(node.value, ast.Call)
                and _name(node.value.func) in CONTAINER_CALLS):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            containers.update(t.id for t in targets if isinstance(t, ast.Name))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in fn.decorator_list:
            if _name(dec.func if isinstance(dec, ast.Call) else dec) in ("lru_cache", "cache"):
                found.append(f"{fn.name}: @{ast.unparse(dec)}")
        nodes = list(ast.walk(fn))
        declared = {n for node in nodes if isinstance(node, ast.Global) for n in node.names}
        local = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        shared = containers - (local - declared)
        shared |= {t.id for node in nodes if isinstance(node, ast.Assign)
                   and _name(node.value) in shared for t in node.targets
                   if isinstance(t, ast.Name) and isinstance(node.value, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS:
                target = node.func.value
            else:
                target = None
            if isinstance(target, ast.Name) and target.id in shared or \
                    isinstance(node, ast.Global) and shared & set(node.names):
                found.append(f"{fn.name}:{node.lineno} {ast.unparse(node)}")
    return found


def test_no_module_keeps_a_cache_of_answers():
    """No ``functools.lru_cache`` or ``cache`` decorator in the package, and
    no function that changes a module-level dict, list or set: such a cache
    would carry answers from one job, test or benchmark round into the
    next.  What is derived once is kept by the object it belongs to (a
    ring's bases, a space's layout).  ``__init__``'s ``globals()[name] =
    value`` binds an export, not an answer, and is not a module-level
    container."""
    package = Path(noether.__file__).parent
    found = [f"{path.stem}.{hit}" for path in sorted(package.glob("*.py"))
             for hit in _module_caches(ast.parse(path.read_text()))]
    assert found == []
    memo = ast.parse("_MEMO = {}\n"
                     "@functools.lru_cache(None)\n"
                     "def f(x):\n"
                     "    _MEMO[x] = x\n"
                     "    _MEMO.setdefault(x, x)\n"
                     "def g(_MEMO):\n"
                     "    _MEMO[0] = 0\n"
                     "def h(x):\n"
                     "    memo = _MEMO\n"
                     "    memo[x] = x\n")
    assert len(_module_caches(memo)) == 4


# -- the record classes: construction, equality and hashing ------------------

def _record_cases():
    """(module, class, field names, defaults, field tuples, frozen) for each
    record class: today's positional order, keyword names and defaults.
    Each later tuple differs from the first in every field it can differ in
    alone and stay valid.  Values are checked only where the class
    validates them."""
    from noether.config import DEFAULT_BUDGETS
    from noether.fields import GF, QQ
    from noether.rings import PresentedRing
    from noether.topology import DistinguishedOpen, FiniteSpace

    R = PresentedRing(QQ, ("x",))
    S = PresentedRing(GF(3), ("x", "y"))
    x, one = R.parse("x"), R.one()
    D_x, D_1 = DistinguishedOpen(R, x), DistinguishedOpen(R, one)
    space, point = FiniteSpace([0, 1], [(0, 1)]), FiniteSpace([0])
    return [
        ("acceptance", "AcceptanceResult", "name passed detail seconds limit", {},
         [("c1", True, "ok", 0.5, 1.0), ("c2", False, "no", 0.7, 2.0)], False),
        ("baer", "BaerReport", "injective witness", {"witness": None},
         [(True, None), (False, (frozenset({0}), {0: 1}))], False),
        ("baer", "LedgerEntry", "ideal graph", {},
         [(frozenset({0}), ((0, 0),)), (frozenset({0, 2}), ((0, 0), (2, 1)))], True),
        ("baer", "BaerChain", "stages stalled_at", {"stalled_at": None},
         [(["M"], None), (["M", "E"], 1)], False),
        ("cech", "CechComplex", "field dims differentials window", {"window": {}},
         [(QQ, [1], [], {}), (GF(2), [1, 1], [[[1]]], {"base_degree": 2})], False),
        ("cech", "TwistData", "n d", {}, [(1, 2), (2, -4)], True),
        ("cech", "AffineWindow", "base_degree denominator_exponent",
         {"base_degree": 8, "denominator_exponent": 3}, [(8, 3), (2, 1)], True),
        ("digraph", "DigraphNode", "open gens", {}, [(D_x, (x,)), (D_1, ())], True),
        ("digraph", "IdealDigraph", "ring nodes edges root", {"root": 0},
         [(R, ("n0",), (), 0), (S, ("n0", "n1"), ((0, 1),), 1)], True),
        ("digraph", "DigraphReport",
         "global_ok functional_ok decreasing_ok increasing_ok structural_ok witnesses",
         {"global_ok": True, "functional_ok": True, "decreasing_ok": True,
          "increasing_ok": True, "structural_ok": True, "witnesses": {}},
         [(True, True, True, True, True, {}), (False, False, False, False, False, {"w": 1})],
         False),
        ("digraph", "ZZSheafData", "space assignment", {},
         [(space, ((frozenset({0}), 2),)), (point, ((frozenset({0}), 3),))], True),
        ("digraph", "ZZDigraph", "space nodes edges root", {"root": 0},
         [(space, ((frozenset({0}), 2),), (), 0), (point, (), ((0, 1),), 1)], True),
        ("fields", "FieldSpec", "kind p", {"p": 0}, [("q", 0), ("fp", 5), ("fp", 7)], True),
        ("finite", "DirectSum", "module injections", {}, [("M", []), ("N", [abs])], False),
        ("finite", "NoetherianReport",
         "generator_lists max_strict_chain ideal_count_bound maximal_by_subset ok", {},
         [([[1]], 2, 3, {(0,): [1]}, True), ([], 0, 1, {}, False)], False),
        ("jobs", "JobSpec", "command payload budgets", {"budgets": DEFAULT_BUDGETS},
         [("groebner", {"a": 1}, DEFAULT_BUDGETS), ("ideal", {}, "B")], False),
        ("jobs", "Report", "command status result witness config timings",
         {"result": None, "witness": None, "config": {}, "timings": {}},
         [("open", "pass", None, None, {}, {}), ("baer", "fail", 1, [2], {"c": 3}, {"t": 0.5})],
         False),
        ("poly", "BlockElim", "naux", {}, [(1,), (2,)], True),
        ("rings", "PresentedRing", "field vars quotient inverted",
         {"quotient": (), "inverted": ()},
         [(QQ, ("x",), (), ()), (QQ, ("y",), (x * x - one,), (x,)), (GF(3), ("x",), (), ())],
         True),
        ("topology", "DistinguishedOpen", "ring f", {}, [(R, x), (R, one)], True),
        ("topology", "OpenCover", "target pieces", {}, [(D_1, (D_x,)), (D_x, ())], True),
        ("tower", "TowerLevel", "n ring ideal rule budgets", {},
         [(1, R, "I", "a", DEFAULT_BUDGETS), (2, S, "J", "b", "B")], True),
        ("tower", "CoverMapReport", "source target well_defined etale compatible witness",
         {"witness": None}, [(0, 1, True, True, True, None), (1, 2, False, True, False, "w")],
         False),
        ("tower", "StrictnessReport",
         "n pullback_is_x2_minus_1 strictly_smaller witness_in_big witness_not_in_small", {},
         [(1, True, True, True, True), (2, False, True, False, True)], False),
        ("tower", "MaximalityReport", "n proper evaluations maximal witness",
         {"witness": None}, [(1, True, {"x": "0"}, True, None), (2, False, {}, False, "w")],
         False),
        ("tower", "TowerSuiteReport",
         "depth field rule cover_maps strictness maximality chain chain_strict", {},
         [(2, "Q", "a", [], [], [], ["x"], True), (3, "F3", "b", [1], [2], [3], [], False)],
         False),
        ("config", "Budgets", " ".join(BUDGET_FIELDS), dict(zip(BUDGET_FIELDS, BUDGET_DEFAULTS)),
         [BUDGET_DEFAULTS, (5,) + BUDGET_DEFAULTS[1:]], True),
    ]


BUDGET_FIELDS = ("max_pairs", "max_degree", "finite_ring_bound", "digraph_node_cap",
                 "tower_max_depth", "digraph_vocab_cap", "baer_bound",
                 "baer_materialize_bound")
BUDGET_DEFAULTS = (10**6, 64, 256, 16, 8, 20000, 2**24, 4096)


def test_record_cases_cover_the_27_record_classes():
    cases = _record_cases()
    assert len({(m, c) for m, c, *_ in cases}) == 27
    assert sum(frozen for *_, frozen in cases) == 14


@pytest.mark.parametrize("case", range(27))
def test_record_builds_compares_and_hashes_as_before(case):
    """Each record class builds by position and by keyword, with today's
    defaults (a fresh dict where the default is a dict); two instances are
    equal exactly when their fields are, never equal an instance of another
    class, and a frozen class hashes an instance as the tuple of its fields,
    so equal instances hash equal."""
    cases = _record_cases()
    module, name, names, defaults, samples, frozen = cases[case]
    cls = getattr(importlib.import_module(f"noether.{module}"), name)
    names = names.split()
    other_module, other_name, _, _, other_samples, _ = cases[(case + 1) % len(cases)]
    other = getattr(importlib.import_module(f"noether.{other_module}"), other_name)(
        *other_samples[0])
    built = []
    for values in samples:
        a = cls(*values)
        b = cls(**dict(zip(names, values)))
        assert [getattr(a, n) for n in names] == list(values)
        assert a == b and not a != b
        assert a != values and a != other and not a == other
        if frozen:
            assert hash(a) == hash(b) == hash(tuple(values))
        else:
            with pytest.raises(TypeError):
                hash(a)
        built.append(a)
    for a, b in itertools.combinations(built, 2):
        assert a != b and not a == b
    for values in samples[1:]:
        for i in range(len(names)):
            try:
                mixed = cls(*samples[0][:i], values[i], *samples[0][i + 1:])
            except DomainError:
                continue
            assert (mixed == built[0]) == (values[i] == samples[0][i])
    required = [n for n in names if n not in defaults]
    bare = cls(*samples[0][:len(required)])
    assert {n: getattr(bare, n) for n in defaults} == defaults
    for n, default in defaults.items():
        if isinstance(default, dict):
            assert getattr(bare, n) is not getattr(cls(*samples[0][:len(required)]), n)


def test_presented_ring_equality_ignores_what_it_keeps():
    """A ring that has computed bases, a localization and its inverted
    product equals, and hashes as, a fresh ring with the same presentation."""
    from noether.fields import QQ
    from noether.rings import PresentedRing

    used = PresentedRing(QQ, ("x", "y"))
    used.ideal("x^2 - y", "x*y - 1").canonical_basis()
    used.with_inverted(used.parse("x")).ideal("x*y - 1").canonical_basis()
    used.inverted_product()
    assert used.__dict__.keys() - {"field", "vars", "quotient", "inverted"}
    fresh = PresentedRing(QQ, ("x", "y"))
    assert used == fresh and hash(used) == hash(fresh)
    assert used != PresentedRing(QQ, ("x", "y"), (used.parse("x"),))
