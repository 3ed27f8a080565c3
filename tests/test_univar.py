"""The univariate layer: its fast paths against Buchberger and Rabinowitsch
elimination, squarefree decomposition and coprime bases against sympy's
factorization, its gcd, division and squarefree parts against sympy.Poly,
its place below ``rings``, and what each process imports:
no job loads sympy, and a CLI job loads only the layers its command uses.
Also that a job's report, minus ``timings``, does not depend on what ran
before it in the process or on the hash seed."""

import ast
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from noether.errors import CapabilityError
from noether.fields import GF, QQ
from noether.groebner import groebner_basis
from noether.poly import DEGREVLEX, BlockElim, Polynomial
from noether.rings import PresentedRing, radical_membership, saturate
from noether.jobs import COMMANDS, load_job, run_job
from noether.univar import (_dense, _poly, coprime_base, divides, exact_quotient, from_sympy,
                            gcd, irreducible_factors, multiplicity, power_product,
                            squarefree_factors, strip_shared, to_sympy)

SRC = Path(__file__).resolve().parents[1] / "src"

fields = st.sampled_from([QQ, GF(7)])
coefficients = st.lists(st.integers(-3, 3), min_size=1, max_size=7)  # degree <= 6


def poly(field, coeffs):
    """sum c_i x^i in k[x], for integers or field elements c_i."""
    return Polynomial(field, 1, {(i,): field.from_int(c) for i, c in enumerate(coeffs)})


def is_unit(basis):
    return len(basis) == 1 and basis[0].is_one()


@settings(deadline=None)
@given(fields, st.lists(coefficients, min_size=1, max_size=3))
def test_gcd_basis_equals_buchberger(field, gens):
    ps = [poly(field, g) for g in gens]
    ring = PresentedRing(field, ("x",))
    assert list(ring.ideal(ps).canonical_basis()) == groebner_basis(ps, DEGREVLEX)


@settings(deadline=None)
@given(fields, st.lists(coefficients, min_size=1, max_size=3), coefficients)
def test_univariate_saturation_equals_rabinowitsch(field, gens, f_coeffs):
    f = poly(field, f_coeffs)
    if f.is_zero():
        f = poly(field, [1])
    ring = PresentedRing(field, ("x",))
    fast = saturate(ring.ideal([poly(field, g) for g in gens]), f).canonical_basis()
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


NO_SYMPY_SCRIPT = """
import contextlib, io, json, pathlib, sys


class NoSympy:
    # Refuses sympy as an uninstalled package would, and records the try.
    tried = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "sympy":
            NoSympy.tried.append(name)
            raise ImportError(f"No module named {name!r}")


sys.meta_path.insert(0, NoSympy())
import noether
from noether.cli import main
assert not NoSympy.tried, "import noether"
results = []
for argv, code in json.loads(pathlib.Path(sys.argv[1]).read_text()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == code, argv
    assert not NoSympy.tried, argv[0]
    if argv[0] == "digraph-eval":
        results.append(json.loads(out.getvalue())["result"])
print(json.dumps(results))
"""

QQ_X = {"field": "q", "vars": ["x"]}
# One job per command other than suite, as (command, payload, exit code).
CLI_JOBS = [
    ("groebner", {"ring": {"field": "q", "vars": ["x", "y"]},
                  "generators": ["x^2 - 1", "x*y - 1"]}, 0),
    ("ideal", {"op": "radical-membership", "ring": QQ_X, "ideal": ["x^2"],
               "element": "x"}, 0),
    ("open", {"op": "contains", "ring": QQ_X, "a": "x", "b": "x^2"}, 0),
    ("digraph-validate", {"op": "zz-extract",
                          "space": {"points": [0, 1], "below": [[0, 1]]},
                          "assignment": [{"open": [0], "n": 2},
                                         {"open": [0, 1], "n": 4}]}, 0),
    # Over D(1): the prime (x + 1) lies in the child's open D(x - 1), whose
    # ideal is the unit ideal, so the section ideal is (x - 1).
    ("digraph-eval", {"op": "evaluate", "open": "1", "digraph": {
        "ring": QQ_X,
        "nodes": [{"open": "1", "gens": ["x^2 - 1"]},
                  {"open": "x - 1", "gens": ["1"]}],
        "edges": [[0, 1]], "root": 0}}, 0),
    # Over F_3 with x inverted: the root generator is (x^2 + 1)^3 (x - 1),
    # a cube, and only (x^2 + 1) stays outside the child's open.
    ("digraph-eval", {"op": "evaluate", "open": "1", "digraph": {
        "ring": {"field": "fp:3", "vars": ["x"], "inverted": ["x"]},
        "nodes": [{"open": "1", "gens": ["x^7 - x^6 + x - 1"]},
                  {"open": "x^2 + 1", "gens": ["1"]}],
        "edges": [[0, 1]], "root": 0}}, 0),
    ("digraph-extract", {"oracle": {"kind": "quasi-coherent", "ring": QQ_X,
                                    "ideal": ["x^2 - x"]},
                         "basis": ["x", "x - 1", "x^2 - x"]}, 0),
    ("cech-affine", {"op": "vanishing", "ring": QQ_X, "ideal": ["x - 1"],
                     "cover": {"target": "1", "pieces": ["x", "x - 1"]}}, 0),
    ("cech-projective", {"n": 2, "d": -4}, 0),
    ("baer", {"op": "test", "finite_ring": {"zmod": 4},
              "module": {"kind": "ring"}}, 0),
    ("etale", {"op": "level", "depth": 2}, 0),
]


def test_sympy_is_imported_only_to_factor(tmp_path):
    """sympy, a test dependency, serves only the factorization oracle: every
    CLI command runs with its import refused, digraph-eval's section ideals
    included."""
    argvs = []
    for k, (command, payload, code) in enumerate(CLI_JOBS):
        path = tmp_path / f"job{k}.json"
        path.write_text(json.dumps(payload))
        argvs.append([[command, str(path)], code])
    jobs = tmp_path / "jobs.json"
    jobs.write_text(json.dumps(argvs))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY_SCRIPT, str(jobs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        {"open": "1", "generators": ["x - 1"]},
        {"open": "1", "generators": ["x^6 + 1"]}]


def report(command, payload):
    """The job's report minus ``timings``, as its JSON reads it back."""
    doc = run_job(load_job(command, payload)).as_dict()
    del doc["timings"]
    return json.loads(json.dumps(doc, sort_keys=True))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(CLI_JOBS), st.sampled_from(CLI_JOBS))
def test_a_report_does_not_depend_on_the_job_run_before(job, other):
    """What a run keeps (a ring's bases, a space's layout, an operation
    table) must not change the next report in the same process."""
    first = report(*job[:2])
    report(*other[:2])
    assert report(*job[:2]) == first


REPORTS_SCRIPT = """
import json, sys
from noether.jobs import load_job, run_job
out = []
for command, payload in json.load(sys.stdin):
    doc = run_job(load_job(command, payload)).as_dict()
    del doc["timings"]
    out.append(doc)
print(json.dumps(out, sort_keys=True))
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_a_report_does_not_depend_on_the_hash_seed(hash_seed):
    """Each job of CLI_JOBS gives the same report in a fresh process under
    PYTHONHASHSEED 1 and 2 as in this one, whose hash seed is random."""
    jobs = [[command, payload] for command, payload, _ in CLI_JOBS]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, "-c", REPORTS_SCRIPT], input=json.dumps(jobs),
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [report(*job) for job in jobs]


LAYERS_SCRIPT = """
import contextlib, io, json, sys
import noether
if len(sys.argv) > 1:
    from noether.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("noether.") or m in ("dataclasses", "inspect"))))
"""

# The noether.* modules a CLI process loads for each command of CLI_JOBS,
# besides cli, config, errors and jobs.  Only jobs that build a finite ring
# load finite, and univar loads only for a univariate ring and for the
# digraph and cech-affine commands.
JOB_LAYERS = {
    "groebner": "fields groebner parse poly rings",
    "ideal": "fields groebner parse poly rings univar",
    "open": "fields groebner parse poly rings topology univar",
    "digraph-validate": "digraph fields groebner parse poly rings topology univar",
    "digraph-eval": "digraph fields groebner parse poly rings topology univar",
    "digraph-extract": "digraph fields groebner parse poly rings topology univar",
    "cech-affine": "cech fields groebner parse poly rings topology univar",
    "cech-projective": "cech fields",
    "baer": "baer fields finite",
    "etale": "fields groebner parse poly rings tower",
}


def test_job_layers_name_every_command():
    assert set(JOB_LAYERS) == {command for command, _, _ in CLI_JOBS} == set(COMMANDS) - {"suite"}


@pytest.mark.parametrize("command,payload", [(None, None)] + [
    job[:2] for job in CLI_JOBS], ids=["import"] + [job[0] for job in CLI_JOBS])
def test_process_loads_only_the_layers_it_uses(tmp_path, command, payload):
    """``import noether`` loads no layer, and a CLI job exactly the layers
    of ``JOB_LAYERS``; neither loads ``dataclasses``, nor ``inspect``,
    which ``dataclasses`` imports."""
    argv = []
    if command is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(payload))
        argv = [command, str(path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", LAYERS_SCRIPT, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    if command is None:
        assert loaded == []
    else:
        expected = {"cli", "config", "errors", "jobs", *JOB_LAYERS[command].split()}
        assert loaded == sorted(f"noether.{name}" for name in expected)


# -- squarefree decomposition and coprime bases against sympy's factorization --

SQUAREFREE_FIELDS = st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7)])


@st.composite
def products_of_powers(draw, field):
    """A unit times up to three powers, exponents 1..9, of small polynomials
    (x^2 + 1 among them), so p-th powers and multiplicities above p occur
    over F_p; possibly 0 or a constant."""
    out = poly(field, [draw(st.integers(-3, 3))])
    blocks = st.sampled_from([[0, 1], [1, 1], [1, 0, 1]]) | st.lists(
        st.integers(-3, 3), min_size=2, max_size=4)
    for coeffs in draw(st.lists(blocks, max_size=3)):
        block = poly(field, coeffs)
        if not block.is_zero():
            out = out * block ** draw(st.integers(1, 9))
    return out


def factor_multiplicities(p):
    """{monic irreducible q: multiplicity} by sympy."""
    return dict(irreducible_factors(p))


def product(field, polys):
    out = poly(field, [1])
    for p in polys:
        out = out * p
    return out


def pinned_power_product(field, *powers):
    return (field, product(field, [poly(field, c) ** e for c, e in powers]))


@settings(deadline=None)
@given(SQUAREFREE_FIELDS.flatmap(lambda F: st.tuples(st.just(F), products_of_powers(F))))
# A p-th power beside factors of other multiplicities leaves a p-th power
# after the gcd loop; multiplicities above p.
@example(pinned_power_product(GF(3), ([1, 1], 2), ([1, 0, 1], 3), ([0, 1], 9)))
@example(pinned_power_product(GF(2), ([1, 1, 1], 4), ([1, 1], 3), ([0, 1], 6)))
@example(pinned_power_product(GF(5), ([1, 0, 1], 5), ([2, 1], 7)))
@example(pinned_power_product(QQ, ([1, 0, 1], 3), ([-2, 1], 7)))
def test_squarefree_factors_group_the_irreducible_factors(case):
    field, p = case
    if p.is_zero():
        return
    by_multiplicity = {}
    for q, m in irreducible_factors(p):
        by_multiplicity.setdefault(m, []).append(q)
    expected = {m: product(field, qs) for m, qs in by_multiplicity.items()}
    got = squarefree_factors(p)
    assert len({i for _, i in got}) == len(got)
    assert {i: a for a, i in got} == expected
    assert product(field, [a ** i for a, i in got]) == p.monic(DEGREVLEX)


@settings(deadline=None)
@given(SQUAREFREE_FIELDS.flatmap(lambda F: st.tuples(
    st.just(F), st.lists(products_of_powers(F), max_size=4))))
def test_coprime_base_refines_the_irreducible_factors(case):
    field, polys = case
    base = coprime_base(polys)
    members = [p for p in polys if not p.is_zero() and not p.is_constant()]
    factorizations = [factor_multiplicities(p) for p in members]
    for b in base:
        assert b == b.monic(DEGREVLEX) and not b.is_constant()
        assert all(m == 1 for _, m in irreducible_factors(b))  # squarefree
    for a, b in itertools.combinations(base, 2):
        assert gcd([a, b], field).is_one()
    primes = {q for f in factorizations for q in f}
    # Every irreducible factor of a member divides exactly one base element,
    # and every irreducible factor of a base element divides some member.
    for q in primes:
        assert sum(divides(q, b) for b in base) == 1
    for b in base:
        qs = list(factor_multiplicities(b))
        assert set(qs) <= primes
        for f in factorizations:
            assert len({f.get(q, 0) for q in qs}) == 1


@settings(deadline=None)
@given(SQUAREFREE_FIELDS.flatmap(lambda F: st.tuples(st.just(F), st.lists(
    st.tuples(products_of_powers(F), st.integers(0, 4)), max_size=4))))
def test_power_product_is_the_monic_sparse_product(case):
    """The product of the b^e multiplied out on dense forms is the monic
    product ``Polynomial`` arithmetic gives, and keeps its dense form."""
    field, powers = case
    powers = [(b, e) for b, e in powers if not b.is_zero()]
    got = power_product(powers, field)
    assert got == product(field, [b ** e for b, e in powers]).monic(DEGREVLEX)
    assert got._dense_form == _dense(poly(field, [1]) * got)


@pytest.mark.parametrize("call,q,g", [
    (multiplicity, "x", "0"), (multiplicity, "2", "x"), (multiplicity, "0", "x"),
    (strip_shared, "0", "x")])
def test_division_loops_refuse_inputs_they_cannot_finish(call, q, g):
    """Every power of a constant divides x, and every power of x divides 0;
    zero keeps every factor it shares with x."""
    ring = PresentedRing(QQ, ("x",))
    with pytest.raises(CapabilityError):
        call(ring.parse(q), ring.parse(g))


# -- gcd, division, multiplicity and squarefree parts against sympy.Poly ------

ORACLE_FIELDS = st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(32003)])


def field_elements(field):
    if field.p:
        return st.integers(0, field.p - 1)
    return st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def oracle_polys(draw, field, max_degree=8):
    """A polynomial of degree <= max_degree: dense random coefficients, or a
    power b^k times a cofactor, so that repeated factors and, over F_p,
    p-th powers h(x^p) occur."""
    elements = field_elements(field)
    if draw(st.booleans()):
        return poly(field, draw(st.lists(elements, max_size=max_degree + 1)))
    k = draw(st.integers(2, max(2, max_degree)))
    base_degree = draw(st.integers(0, max_degree // k))
    base = poly(field, draw(st.lists(elements, min_size=base_degree + 1,
                                     max_size=base_degree + 1)))
    rest_degree = max_degree - k * base_degree
    rest = poly(field, draw(st.lists(elements, min_size=1, max_size=rest_degree + 1)))
    return base ** k * rest


def monic_sympy(sp, field):
    """A sympy polynomial back in our type, normalized to monic (0 stays 0)."""
    return from_sympy(sp if sp.is_zero else sp.monic(), field)


def with_polys(n):
    return ORACLE_FIELDS.flatmap(lambda F: st.tuples(
        st.just(F), *[oracle_polys(F) for _ in range(n)]))


@settings(deadline=None)
@given(with_polys(3))
def test_gcd_and_division_match_sympy(case):
    field, a, b, c = case
    sa, sb, sc = to_sympy(a), to_sympy(b), to_sympy(c)
    assert gcd([a, b], field) == monic_sympy(sa.gcd(sb), field)
    assert gcd([a, b, c], field) == monic_sympy(sa.gcd(sb).gcd(sc), field)
    # A shared factor c keeps Euclid's remainders nonconstant and non-monic.
    assert gcd([a * c, b * c], field) == monic_sympy((sa * sc).gcd(sb * sc), field)
    for num, den in ((b, a), (a * c, a), (a, b * b)):
        if den.is_zero():
            assert divides(den, num) == num.is_zero()
            continue
        quo, rem = to_sympy(num).div(to_sympy(den))
        assert divides(den, num) == rem.is_zero
        if rem.is_zero:
            assert exact_quotient(num, den) == from_sympy(quo, field)
        else:
            with pytest.raises(CapabilityError):
                exact_quotient(num, den)


@settings(deadline=None)
@given(with_polys(2))
def test_kept_dense_forms_equal_derived_ones(case):
    """A polynomial keeps the (unit, normal form) that it was built from or
    first derived: the same as a copy without it derives."""
    field, a, b = case
    out = [a, b, gcd([a, b], field), exact_quotient(a * b, b) if not b.is_zero() else a]
    out += coprime_base([a, b])
    if not a.is_zero():
        out += [f for f, _ in squarefree_factors(a)] + [strip_shared(a, b)]
    for f in out:
        assert _dense(f) == _dense(Polynomial(field, 1, f.terms))
        assert _dense(f) is _dense(f)


@settings(deadline=None)
@given(with_polys(3))
@example((QQ, poly(QQ, [1, 2]), poly(QQ, [1]), poly(QQ, [0, 1])))
def test_a_held_result_is_the_monic_polynomial_poly_builds(case):
    """``gcd`` and ``strip_shared`` may return an input itself, but only the
    monic result: equal to what ``_poly`` builds from its normal form, unit
    included.  Over Q that unit is 1/lc of the normal form, not 1."""
    field, a, b, c = case
    monic = [p.monic(DEGREVLEX) for p in (a, b) if not p.is_zero()]
    calls = [([a, b], gcd([a, b], field)), ([a], gcd([a], field))]
    calls += [([m, m * c], gcd([m, m * c], field)) for m in monic]
    calls += [([p], strip_shared(p, c)) for p in [a, *monic] if not p.is_zero()]
    for inputs, result in calls:
        built = _poly(_dense(result)[1], field)
        assert result == built
        if any(result is p for p in inputs):
            assert _dense(result) == _dense(built)


def test_gcd_and_strip_shared_of_a_non_monic_polynomial_are_monic():
    half = Polynomial(QQ, 1, {(1,): Fraction(1), (0,): Fraction(1, 2)})  # x + 1/2
    assert gcd([poly(QQ, [1, 2])], QQ) == half
    assert strip_shared(poly(QQ, [1, 2]), poly(QQ, [0, 1])) == half


@settings(deadline=None)
@given(with_polys(3), st.integers(0, 3))
def test_multiplicity_and_strip_shared_match_sympy(case, k):
    field, q, h, f = case
    g = q ** k * h
    if not q.is_constant() and not g.is_zero():
        sq, sg, e = to_sympy(q), to_sympy(g), 0
        while True:
            quo, rem = sg.div(sq)
            if not rem.is_zero:
                break
            sg, e = quo, e + 1
        assert multiplicity(q, g) == e >= k
    if g.is_zero():
        return
    g = g.monic(DEGREVLEX)
    sg, sf = to_sympy(g), to_sympy(f)
    while True:
        d = sg.gcd(sf)
        if d.degree() == 0:
            break
        sg = sg.div(d)[0].monic()
    assert strip_shared(g, f) == from_sympy(sg, field)


@settings(deadline=None)
@given(with_polys(1))
# p-th powers h(x^p), alone and beside a factor of another multiplicity.
@example((GF(2), poly(GF(2), [1, 1, 1]) ** 4))
@example((GF(3), poly(GF(3), [1, 1]) ** 3 * poly(GF(3), [1, 0, 1]) ** 2))
def test_squarefree_factors_match_sympy(case):
    field, f = case
    if f.is_zero():
        return
    got = squarefree_factors(f)
    assert product(field, [a ** i for a, i in got]) == f.monic(DEGREVLEX)
    for a, _ in got:
        assert a == a.monic(DEGREVLEX) and not a.is_constant()
        assert to_sympy(a).is_sqf
    for (a, _), (b, _) in itertools.combinations(got, 2):
        assert to_sympy(a).gcd(to_sympy(b)).degree() == 0
