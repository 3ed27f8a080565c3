"""Baer's criterion, one-step extensions in lazy normal form, chains, and
brute-force injective envelopes over finite rings."""

import json

import pytest

from noether.baer import (
    BaerModule,
    LedgerEntry,
    _verify_slot_extension,
    baer_chain,
    baer_step,
    baer_test,
    chain_fixed_pointwise,
    first_principles_injective,
    injective_envelope_bruteforce,
)
from noether.config import Budgets
from noether.errors import BoundExceededError, ValidationError
from noether.finite import (
    all_homs,
    enumerate_submodules,
    free_module,
    gf_poly_quotient,
    product_ring,
    quotient_module,
    ring_as_module,
    span,
    submodule,
    zero_module,
    zmod,
)
from noether.jobs import parse_job, run_job


@pytest.fixture
def R4():
    return zmod(4)


def two_torsion(R4):
    M = ring_as_module(R4)
    return submodule(M, span(M, [2]), name="Z/2")


def test_z4_is_self_injective(R4):
    assert baer_test(ring_as_module(R4)).injective


def test_z2_is_not_injective_over_z4(R4):
    rep = baer_test(two_torsion(R4))
    assert not rep.injective
    ideal, graph = rep.witness
    assert ideal == frozenset({0, 2})


def test_zero_module_is_injective_over_field_like_quotient():
    # Over F2[t]/(t^2) the ring itself is injective; over any ring the zero
    # module passes Baer vacuously except through the zero map... which
    # extends, so it is injective by the criterion.
    R = gf_poly_quotient(2, [0, 0, 1])
    assert baer_test(zero_module(R)).injective
    assert baer_test(ring_as_module(R)).injective


def test_baer_agrees_with_first_principles(R4):
    ambient = [free_module(R4, 1), free_module(R4, 2)]
    for M in (zero_module(R4), ring_as_module(R4), two_torsion(R4)):
        assert baer_test(M).injective == first_principles_injective(M, ambient)


def test_slot_that_disagrees_with_its_ledger_map_is_refused(R4):
    ext = baer_step(ring_as_module(R4))
    zero = ext.base.zero
    s, entry = next((s, e) for s, e in enumerate(ext.ledger)
                    if any(v != zero for v in e.graph.values()))
    _verify_slot_extension(ext, s, entry)
    wrong = LedgerEntry(entry.ideal, {x: zero for x in entry.ideal})
    with pytest.raises(ValidationError, match="does not restrict to the ideal map"):
        _verify_slot_extension(ext, s, wrong)


def test_step_from_zero_has_size_eight(R4):
    # One slot per (ideal, map): ideals 0, (2), (1) contribute 1 + 2 + 4
    # quotient sizes 1 * 2 * 4 = 8.
    assert baer_step(zero_module(R4)).size == 8


def test_step_embedding_is_verified_and_injective(R4):
    M = two_torsion(R4)
    step = baer_step(M)
    images = {step.embed(m) for m in M.elements}
    assert len(images) == M.size


def test_chain_sizes_from_zero(R4):
    chain = baer_chain(zero_module(R4), 2)
    assert chain.stalled_at is None
    assert [getattr(s, "size") for s in chain.stages] == [1, 8, 512]
    assert chain_fixed_pointwise(chain)


def test_chain_final_stage_may_stay_lazy(R4):
    # From Z/2 the second stage has size 2 * (2*4)^? ... large; the chain
    # keeps it as a lazy normal-form module without tabulating elements.
    M = two_torsion(R4)
    chain = baer_chain(M, 2)
    assert chain.stalled_at is None
    assert chain.stages[-1].size == 32768
    assert chain_fixed_pointwise(chain)


def test_chain_respects_materialize_bound(R4):
    tight = Budgets(baer_materialize_bound=4)
    chain = baer_chain(zero_module(R4), 2, tight)
    assert chain.stalled_at == 1
    assert isinstance(chain.stages[-1], BaerModule)  # left lazy


def test_chain_over_z9_stalls_at_the_baer_bound():
    # The second step maps every ideal of Z/9 into the 2187-element stage;
    # the homs are found without tabulating it, and the next extension
    # exceeds baer_bound, so the chain stops there.
    job = {"command": "baer", "payload": {
        "op": "chain", "finite_ring": {"zmod": 9}, "module": {"kind": "ring"}, "K": 2}}
    report = run_job(parse_job(json.dumps(job)))
    assert report.exit_code == 0
    assert report.result == {"stage_sizes": [9, 2187], "stalled_at": 1}


def test_baer_module_size_bound(R4):
    tight = Budgets(baer_bound=4)
    with pytest.raises(BoundExceededError):
        baer_step(zero_module(R4), tight)
    with pytest.raises(BoundExceededError):
        baer_chain(zero_module(R4), 1, tight)


def test_lazy_arithmetic_matches_materialized(R4):
    lazy = baer_step(zero_module(R4))
    table = lazy.materialize("M1")
    for a in table.elements:
        for b in table.elements:
            assert lazy.add(a, b) == table.add(a, b)
        for r in R4.elements:
            assert lazy.smul(r, a) == table.smul(r, a)


def test_materialized_step_is_injective_module(R4):
    # The one-step extension of 0 over Z/4 is Z/4 + Z/2 + 0-slot: injective
    # is not guaranteed in general, but every ideal map into 0 extends.
    table = baer_step(zero_module(R4)).materialize("M1")
    assert table.size == 8


def test_envelope_of_z2_is_z4(R4):
    M = two_torsion(R4)
    E = injective_envelope_bruteforce(M)
    assert E is not None and E.size == 4
    # E is isomorphic to Z/4: some hom from Z/4 to E is bijective.
    R4mod = ring_as_module(R4)
    assert any(len(set(h.values())) == 4 for h in all_homs(R4mod, E))


def test_envelope_of_injective_is_itself_sized(R4):
    E = injective_envelope_bruteforce(ring_as_module(R4))
    assert E is not None and E.size == 4


def test_first_principles_negative_case(R4):
    ambient = [free_module(R4, 1)]
    assert not first_principles_injective(two_torsion(R4), ambient)


def test_quotient_modules_of_f2t(R4):
    R = gf_poly_quotient(2, [0, 0, 1])
    base = ring_as_module(R)
    for sub in [span(base, [g]) for g in base.elements]:
        Q = quotient_module(base, span(base, sub))
        assert baer_test(Q).injective == first_principles_injective(
            Q, [free_module(R, 1), free_module(R, 2)])


def first_principles_by_graphs(M, ambient_modules):
    """``first_principles_injective`` comparing each map A -> M with the
    restrictions by its full graph on A: the oracle of the generator-image
    comparison."""
    for B in ambient_modules:
        homs_B = all_homs(B, M)
        for carrier in enumerate_submodules(B):
            A = submodule(B, carrier, name="A")
            restrictions = {tuple(big[a] for a in A.elements) for big in homs_B}
            for graph in all_homs(A, M):
                if tuple(graph[a] for a in A.elements) not in restrictions:
                    return False
    return True


FIRST_PRINCIPLES_RINGS = ([zmod(n) for n in range(2, 13)]
                          + [gf_poly_quotient(p, [0, 0, 1]) for p in (2, 3)]
                          + [product_ring([zmod(2), zmod(4)])])


def test_first_principles_equals_the_graph_comparing_oracle():
    """Zero, ring, quotient, submodule and free modules over each ring, with
    R and (when small) R^2 as the ambient modules."""
    answers = set()
    for R in FIRST_PRINCIPLES_RINGS:
        base = ring_as_module(R)
        ideals = enumerate_submodules(base)[1:-1]
        modules = [zero_module(R), base]
        modules += [quotient_module(base, N, name="R/N") for N in ideals]
        modules += [submodule(base, N, name="N") for N in ideals[:1]]
        if R.size <= 4:
            modules.append(free_module(R, 2))
        ambient = [free_module(R, rank) for rank in (1, 2) if R.size ** rank <= 64]
        for M in modules:
            answer = first_principles_injective(M, ambient)
            assert answer == first_principles_by_graphs(M, ambient), (R, M.name)
            answers.add(answer)
    assert answers == {True, False}


# -- job-level gates: sizes, slots and stalls through run_job --------------------


Z4 = {"zmod": 4}
F2X = {"gf_quotient": {"p": 2, "modulus": [0, 0, 1]}}
ZERO, RING = {"kind": "zero"}, {"kind": "ring"}
Z4_MOD_2 = {"kind": "quotient", "rank": 1, "relations": [[2]]}
F2X_MOD_X = {"kind": "quotient", "rank": 1, "relations": [[[0, 1]]]}
TIGHT = {"baer_materialize_bound": 4}


def baer_job(ring, module, op, budgets=None, **extra):
    job = {"command": "baer", "budgets": budgets or {},
           "payload": {"op": op, "finite_ring": ring, "module": module, **extra}}
    return run_job(parse_job(json.dumps(job)))


@pytest.mark.parametrize("ring,module,sizes", [
    (Z4, ZERO, (1, 8, 3)), (Z4, RING, (4, 64, 7)), (Z4, Z4_MOD_2, (2, 32, 5)),
    (F2X, ZERO, (1, 8, 3)), (F2X, RING, (4, 64, 7)), (F2X, F2X_MOD_X, (2, 32, 5)),
])
def test_step_job_sizes_and_slots(ring, module, sizes):
    report = baer_job(ring, module, "step")
    assert report.exit_code == 0
    result = report.result
    assert (result["input_size"], result["output_size"], result["slots"]) == sizes


@pytest.mark.parametrize("ring,module,K,budgets,stage_sizes,stalled_at", [
    (Z4, ZERO, 0, None, [1], None),
    (Z4, ZERO, 1, None, [1, 8], None),
    (Z4, ZERO, 2, None, [1, 8, 512], None),
    (Z4, ZERO, 3, None, [1, 8, 512], 2),
    (Z4, RING, 3, None, [4, 64, 16777216], 2),
    (Z4, Z4_MOD_2, 2, None, [2, 32, 32768], None),
    (Z4, Z4_MOD_2, 3, None, [2, 32, 32768], 2),
    (F2X, ZERO, 2, None, [1, 8, 512], None),
    (F2X, F2X_MOD_X, 3, None, [2, 32, 32768], 2),
    (Z4, ZERO, 1, TIGHT, [1, 8], None),
    (Z4, ZERO, 2, TIGHT, [1, 8], 1),
    (Z4, RING, 3, TIGHT, [4, 64], 1),
    (Z4, Z4_MOD_2, 3, TIGHT, [2, 32], 1),
    (F2X, ZERO, 0, TIGHT, [1], None),
    (F2X, RING, 2, TIGHT, [4, 64], 1),
    (F2X, F2X_MOD_X, 3, TIGHT, [2, 32], 1),
])
def test_chain_job_stages_and_stalls(ring, module, K, budgets, stage_sizes, stalled_at):
    report = baer_job(ring, module, "chain", budgets, K=K)
    assert report.exit_code == 0
    assert report.result["stage_sizes"] == stage_sizes
    assert report.result["stalled_at"] == stalled_at


@pytest.mark.parametrize("K", [1, 2])
def test_chain_whose_first_step_is_refused_exits_like_the_step(K):
    # The 16-element Z/4^2 has one map from (0) and four from (2); with
    # those 5 slots the extension exceeds a 64-element bound, before the
    # 16 maps from (1) are listed.
    module, budgets = {"kind": "free", "rank": 2}, {"baer_bound": 64}
    step = baer_job(Z4, module, "step", budgets)
    chain = baer_job(Z4, module, "chain", budgets, K=K)
    assert step.exit_code == chain.exit_code == 3
    assert chain.result["error"] == step.result["error"]
    assert "one-step extension with 5 slots" in chain.result["error"]
