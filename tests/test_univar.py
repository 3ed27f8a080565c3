"""The univariate layer: its fast paths against Buchberger and Rabinowitsch
elimination, its place below ``rings``, and the lazy sympy import."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from noether.fields import GF, QQ
from noether.groebner import groebner_basis
from noether.poly import DEGREVLEX, BlockElim, Polynomial
from noether.rings import PresentedRing, radical_membership, saturate

SRC = Path(__file__).resolve().parents[1] / "src"

fields = st.sampled_from([QQ, GF(7)])
coefficients = st.lists(st.integers(-3, 3), min_size=1, max_size=7)  # degree <= 6


def poly(field, coeffs):
    """sum c_i x^i in k[x]."""
    return Polynomial(field, 1, {(i,): field.from_int(c) for i, c in enumerate(coeffs)})


def is_unit(basis):
    return len(basis) == 1 and basis[0].is_one()


@settings(deadline=None)
@given(fields, st.lists(coefficients, min_size=1, max_size=3))
def test_gcd_basis_equals_buchberger(field, gens):
    ps = [poly(field, g) for g in gens]
    ring = PresentedRing(field, ("x",))
    assert list(ring.ideal(ps).plain_basis()) == groebner_basis(ps, DEGREVLEX)


@settings(deadline=None)
@given(fields, st.lists(coefficients, min_size=1, max_size=3), coefficients)
def test_univariate_saturation_equals_rabinowitsch(field, gens, f_coeffs):
    f = poly(field, f_coeffs)
    if f.is_zero():
        f = poly(field, [1])
    ring = PresentedRing(field, ("x",))
    fast = saturate(ring.ideal([poly(field, g) for g in gens]), f).plain_basis()
    t = Polynomial.var(field, 2, 0)
    one = Polynomial.const(field, 2, 1)
    lifted = [poly(field, g).lift(1) for g in gens] + [one - t * f.lift(1)]
    elim = groebner_basis(lifted, BlockElim(1))
    slow = groebner_basis([g.drop_aux(1) for g in elim if not g.uses_aux(1)], DEGREVLEX)
    assert list(fast) == slow


@settings(deadline=None)
@given(fields, st.lists(coefficients, min_size=1, max_size=3), coefficients,
       st.none() | coefficients)
def test_univariate_radical_membership_equals_rabinowitsch(field, gens, f_coeffs,
                                                            inverted):
    """f is in rad(I) iff (I, 1 - t*f) is the unit ideal; in a localization
    the inverted h joins as 1 - u*h."""
    f = poly(field, f_coeffs)
    h = None if inverted is None else poly(field, inverted)
    if h is not None and h.is_zero():
        h = None
    ring = PresentedRing(field, ("x",), inverted=() if h is None else (h,))
    fast = radical_membership(f, ring.ideal([poly(field, g) for g in gens]))
    naux = 1 if h is None else 2
    one = Polynomial.const(field, naux + 1, 1)
    rabinowitsch = [poly(field, g).lift(naux) for g in gens]
    rabinowitsch.append(one - Polynomial.var(field, naux + 1, 0) * f.lift(naux))
    if h is not None:
        rabinowitsch.append(one - Polynomial.var(field, 3, 1) * h.lift(2))
    assert fast == is_unit(groebner_basis(rabinowitsch, DEGREVLEX))


def _imports(tree, module_level_only):
    """Dotted names each import statement can bind, relative imports resolved
    inside the package; with ``module_level_only``, skip function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if module_level_only and isinstance(node, (ast.FunctionDef,
                                                   ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "noether" + ("." + node.module if node.module else "") \
                if node.level else node.module
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_sympy_at_import_time():
    for path in sorted((SRC / "noether").glob("*.py")):
        names = _imports(ast.parse(path.read_text()), module_level_only=True)
        assert not [n for n in names if n.split(".")[0] == "sympy"], path.name


def test_univar_does_not_import_rings():
    tree = ast.parse((SRC / "noether" / "univar.py").read_text())
    assert "noether.rings" not in set(_imports(tree, module_level_only=False))


LAZY_SCRIPT = """
import contextlib, io, json, sys
import noether
from noether.cli import main
assert "sympy" not in sys.modules, "import noether"
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["cech-projective", "--n", "2", "--d", "-4"]) == 0
assert "sympy" not in sys.modules, "cech-projective"
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["digraph-eval", sys.argv[1]]) == 0
assert "sympy" in sys.modules, "digraph-eval"
print(json.dumps(json.loads(out.getvalue())["result"]))
"""


def test_sympy_is_imported_only_to_factor(tmp_path):
    # The section ideal over D(1) is (x - 1): the prime (x + 1) lies in the
    # child's open D(x - 1), whose ideal is the unit ideal.
    payload = tmp_path / "job.json"
    payload.write_text(json.dumps({"op": "evaluate", "open": "1", "digraph": {
        "ring": {"field": "q", "vars": ["x"]},
        "nodes": [{"open": "1", "gens": ["x^2 - 1"]},
                  {"open": "x - 1", "gens": ["1"]}],
        "edges": [[0, 1]], "root": 0}}))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", LAZY_SCRIPT, str(payload)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"open": "1", "generators": ["x - 1"]}
