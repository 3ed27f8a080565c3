"""The package's exports: ``import noether`` binds each of its 118 names
lazily, on first use, to the object its module defines.  Also four checks
of the package source: every budget is read and passed on, every private
helper is used, and no module keeps a cache of answers."""

import ast
import importlib
import re
from dataclasses import fields
from pathlib import Path

import pytest

import noether
from noether.config import Budgets

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


def test_every_budget_is_read():
    """Each ``Budgets`` field is read as ``budgets.<name>`` somewhere in the
    package outside ``config.py``: a knob nothing reads is dead."""
    package = Path(noether.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "config.py":
            read.update(re.findall(r"budgets\.(\w+)", path.read_text()))
    assert {f.name for f in fields(Budgets)} - read == set()


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
