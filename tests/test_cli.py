"""The command-line interface: JSON payloads in, deterministic reports out,
and the documented exit-code contract (0 pass, 1 fail, 2 parse, 3 resource)."""

import json

import pytest

from noether.cli import main
from noether.config import Budgets
from noether.errors import ParseError
from noether.jobs import parse_job


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_payload(tmp_path, payload) -> str:
    path = tmp_path / "job.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_groebner_golden(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "ring": {"field": "q", "vars": ["x", "y"]},
        "generators": ["x^2 - 1", "x*y - 1"]})
    code, doc = run(capsys, "groebner", path)
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["result"]["basis"] == ["y^2 - 1", "x - y"]
    assert doc["config"]["ring"] == "Q[x,y]"


def test_ideal_membership_true_false(tmp_path, capsys):
    base = {"op": "membership", "ring": {"field": "q", "vars": ["x"]},
            "ideal": ["x^2"]}
    code, doc = run(capsys, "ideal",
                    write_payload(tmp_path, dict(base, element="x^3")))
    assert (code, doc["result"]["value"]) == (0, True)
    code, doc = run(capsys, "ideal",
                    write_payload(tmp_path, dict(base, element="x")))
    assert (code, doc["status"]) == (1, "fail")


def test_ideal_saturate(tmp_path, capsys):
    code, doc = run(capsys, "ideal", write_payload(tmp_path, {
        "op": "saturate", "ring": {"field": "q", "vars": ["x", "y"]},
        "ideal": ["x^2*y"], "f": "x"}))
    assert code == 0
    assert doc["result"]["generators"] == ["y"]


def test_ideal_enumerate_finite(tmp_path, capsys):
    code, doc = run(capsys, "ideal", write_payload(tmp_path, {
        "op": "enumerate-ideals", "finite_ring": {"zmod": 6}}))
    assert code == 0
    assert doc["result"]["count"] == 4


def test_open_contains(tmp_path, capsys):
    code, doc = run(capsys, "open", write_payload(tmp_path, {
        "op": "contains", "ring": {"field": "q", "vars": ["x"]},
        "a": "x", "b": "x^2"}))
    assert (code, doc["result"]["value"]) == (0, True)


def test_open_cover_check(tmp_path, capsys):
    code, doc = run(capsys, "open", write_payload(tmp_path, {
        "op": "cover-check", "ring": {"field": "q", "vars": ["x"]},
        "target": "1", "pieces": ["x", "x - 1"]}))
    assert code == 0


def test_digraph_validate_and_witness(tmp_path, capsys):
    payload = {"op": "validate", "digraph": {
        "ring": {"field": "q", "vars": ["x"]},
        "nodes": [{"open": "1", "gens": ["x"]},
                  {"open": "x", "gens": ["1"]}],
        "edges": [[0, 1]], "root": 0}}
    code, doc = run(capsys, "digraph-validate", write_payload(tmp_path, payload))
    assert code == 1
    assert doc["result"]["increasing_on_ideals"] is False
    assert doc["witness"] == {"increasing": [[0, 1]]}


def test_digraph_validate_accepts_generators_alias(tmp_path, capsys):
    payload = {"op": "validate", "digraph": {
        "ring": {"field": "q", "vars": ["x"]},
        "nodes": [{"open": "1", "generators": []},
                  {"open": "x", "generators": ["1"]}],
        "edges": [[0, 1]], "root": 0}}
    code, doc = run(capsys, "digraph-validate", write_payload(tmp_path, payload))
    assert (code, doc["status"]) == (0, "pass")


def test_digraph_eval(tmp_path, capsys):
    payload = {"op": "evaluate", "open": "x", "digraph": {
        "ring": {"field": "q", "vars": ["x"]},
        "nodes": [{"open": "1", "gens": []},
                  {"open": "x", "gens": ["1"]}],
        "edges": [[0, 1]], "root": 0}}
    code, doc = run(capsys, "digraph-eval", write_payload(tmp_path, payload))
    assert code == 0
    assert doc["result"]["generators"] == ["1"]


def test_digraph_extract(tmp_path, capsys):
    payload = {"oracle": {"kind": "quasi-coherent",
                          "ring": {"field": "q", "vars": ["x"]},
                          "ideal": ["x - 1"]},
               "basis": ["x", "x - 1", "x^2 - x"]}
    code, doc = run(capsys, "digraph-extract", write_payload(tmp_path, payload))
    assert code == 0
    assert doc["result"]["nodes"] == [{"gens": ["x - 1"], "open": "1"}]
    assert doc["result"]["edges"] == []


def test_zz_extract(tmp_path, capsys):
    payload = {"op": "zz-extract",
               "space": {"points": [0, 1], "below": [[0, 1]]},
               "assignment": [{"open": [0], "n": 2},
                              {"open": [0, 1], "n": 4}]}
    code, doc = run(capsys, "digraph-validate", write_payload(tmp_path, payload))
    assert code == 0
    assert doc["result"]["regenerates"] is True
    assert doc["result"]["nodes"] == [{"n": 4, "open": [0, 1]},
                                      {"n": 2, "open": [0]}]


def test_cech_projective_flags(capsys):
    code, doc = run(capsys, "cech-projective", "--n", "1", "--d", "-3")
    assert code == 0
    assert doc["result"] == {"H0": 0, "H1": 2}


def test_cech_affine_vanishing(tmp_path, capsys):
    payload = {"op": "vanishing", "ring": {"field": "q", "vars": ["x"]},
               "ideal": ["x - 1"],
               "cover": {"target": "1", "pieces": ["x", "x - 1"]}}
    code, doc = run(capsys, "cech-affine", write_payload(tmp_path, payload))
    assert (code, doc["status"]) == (0, "pass")


def test_baer_test(tmp_path, capsys):
    payload = {"op": "test", "finite_ring": {"zmod": 4},
               "module": {"kind": "ring"}}
    code, doc = run(capsys, "baer", write_payload(tmp_path, payload))
    assert code == 0
    assert doc["result"]["injective"] is True


def test_baer_chain(tmp_path, capsys):
    payload = {"op": "chain", "finite_ring": {"zmod": 4},
               "module": {"kind": "zero"}, "K": 2}
    code, doc = run(capsys, "baer", write_payload(tmp_path, payload))
    assert code == 0
    assert doc["result"]["stage_sizes"] == [1, 8, 512]


def test_etale_suite_power(capsys):
    code, doc = run(capsys, "etale", "--depth", "3", "--field", "q",
                    "--exponent-rule", "power")
    assert (code, doc["status"]) == (0, "pass")


def test_etale_suite_literal_fails(capsys):
    code, doc = run(capsys, "etale", "--depth", "3", "--field", "fp:5",
                    "--exponent-rule", "literal")
    assert (code, doc["status"]) == (1, "fail")
    assert doc["result"]["failing_level"] == 3


def test_parse_error_exit_code(capsys, monkeypatch):
    code, doc = run(capsys, "ideal", "-", stdin="not json",
                    monkeypatch=monkeypatch)
    assert code == 2
    assert doc["status"] == "error"


def test_unknown_op_exit_code(capsys, monkeypatch):
    code, doc = run(capsys, "ideal", "-", stdin='{"op": "nonsense"}',
                    monkeypatch=monkeypatch)
    assert code == 2


def test_unreadable_payload_file_exit_code(tmp_path, capsys):
    code, doc = run(capsys, "groebner", str(tmp_path / "missing.json"))
    assert (code, doc["status"]) == (2, "error")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"ring": {"vars": ["\xe9"]}}'.encode("latin-1"))
    code, doc = run(capsys, "groebner", str(latin1))
    assert (code, doc["status"]) == (2, "error")


@pytest.mark.parametrize("command,payload,key", [
    ("ideal", {"op": "membership", "ideal": ["x"]}, "element"),
    ("open", {"op": "contains", "b": "x"}, "a"),
    ("open", {"op": "cover-check", "pieces": ["x"]}, "target"),
])
def test_missing_required_key_exit_code(capsys, monkeypatch, command, payload, key):
    code, doc = run(capsys, command, "-", stdin=json.dumps(payload),
                    monkeypatch=monkeypatch)
    assert code == 2
    assert doc["config"]["error_type"] == "ParseError"
    assert doc["result"]["error"] == f"missing required key {key!r}"


def test_parse_job_document():
    job = parse_job('{"command": "ideal", "payload": {"ideal": ["x"]}, '
                    '"budgets": {"max_degree": 7}}')
    assert (job.command, job.payload) == ("ideal", {"ideal": ["x"]})
    assert job.budgets == Budgets(max_degree=7)
    with pytest.raises(ParseError, match="missing required key 'element'"):
        job.payload["element"]


@pytest.mark.parametrize("text,message", [
    ('{"command": "nonsense"}', "unknown command 'nonsense'"),
    ('{"command": "groebner", "budgets": {"max_dgree": 7}}',
     "unknown budget field 'max_dgree'"),
    ('{"command": "groebner", "budgets": {"from_env": 7}}',
     "unknown budget field 'from_env'"),
    ('{"command": "groebner", "budgets": {"max_degree": "abc"}}',
     "budget 'max_degree' must be an integer"),
    ('{"command": "groebner", "budgets": [1]}', "budgets must be a JSON object"),
    ('{"command": "groebner", "payload": [1]}', "payload must be a JSON object"),
    ('["groebner"]', "job must be a JSON object"),
    ("  ", "empty job input"),
    ('{"command": ', "invalid JSON job"),
])
def test_parse_job_rejects(text, message):
    with pytest.raises(ParseError, match=message):
        parse_job(text)


@pytest.mark.parametrize("command,payload,key", [
    ("groebner", {"ring": {"field": 5}}, "field descriptor 5"),
    ("groebner", {"ring": {"field": "fp:abc"}}, "'field'"),
    ("groebner", {"ring": "q"}, "'ring'"),
    ("cech-projective", {"n": "a", "d": 1}, "'n'"),
    ("baer", {"finite_ring": {"zmod": "x"}}, "'zmod'"),
    ("groebner", {"ring": {"vars": 5}}, "'vars'"),
    ("groebner", {"ring": {"vars": ["x", 3]}}, "'vars'"),
    ("groebner", {"generators": [5]}, "'generators'"),
    ("groebner", {"generators": "x^2"}, "'generators'"),
    ("groebner", {"ring": {"quotient": "x"}, "generators": ["x"]}, "'quotient'"),
    ("groebner", {"generators": ["x"], "canonical": "no"}, "'canonical'"),
    ("groebner", {"generators": ["x"], "canonical": 1}, "'canonical'"),
    ("cech-projective", {"n": 1, "d": 0, "charts": 5}, "'charts'"),
    ("cech-projective", {"n": 1, "d": 0, "charts": [[0], ["1"]]}, "'charts'"),
    ("cech-projective", {"n": 1, "d": 0, "window": "x"}, "'window'"),
    ("baer", {"module": 5}, "'module'"),
    ("baer", {"op": "hom-from-ideal", "module": 5, "ideal": [0]}, "'module'"),
    ("baer", {"op": "direct-sum", "modules": 5}, "'modules'"),
    ("baer", {"op": "direct-sum", "modules": [{"kind": "ring"}, 5]}, "'modules'"),
    ("cech-projective", {"n": 2.7, "d": 0}, "'n'"),
    ("cech-projective", {"n": True, "d": "3"}, "'n'"),
    ("cech-projective", {"n": 1, "d": "3"}, "'d'"),
    ("ideal", {"op": "noetherian-witness", "finite_ring": {"zmod": 4},
               "chain": 5}, "'chain'"),
    ("ideal", {"op": "noetherian-witness", "finite_ring": {"zmod": 4},
               "chain": [[0], 2]}, "'chain'"),
])
def test_wrong_payload_type_exit_code(capsys, monkeypatch, command, payload, key):
    code, doc = run(capsys, command, "-", stdin=json.dumps(payload),
                    monkeypatch=monkeypatch)
    assert (code, doc["status"]) == (2, "error")
    assert doc["config"]["error_type"] == "ParseError"
    assert key in doc["result"]["error"]


def test_malformed_budget_variable_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("NOETHER_BUDGET_MAX_DEGREE", "abc")
    code, doc = run(capsys, "groebner", "-", stdin="{}",
                    monkeypatch=monkeypatch)
    assert (code, doc["status"]) == (2, "error")
    assert "NOETHER_BUDGET_MAX_DEGREE" in doc["error"]
    assert "'abc'" in doc["error"]
    with pytest.raises(ParseError, match="NOETHER_BUDGET_MAX_DEGREE"):
        parse_job('{"command": "groebner"}')


@pytest.mark.parametrize("edges,root,witness", [
    ([[0, 1]], 3, "root index out of range"),
    ([[0, 1], [1, 1]], 0, "cycle"),
])
def test_invalid_digraph_oracle_fails_validation(capsys, monkeypatch, edges,
                                                 root, witness):
    digraph = {"ring": {"field": "q", "vars": ["x"]},
               "nodes": [{"open": "1", "gens": []}, {"open": "x", "gens": ["1"]}],
               "edges": edges, "root": root}
    code, doc = run(capsys, "digraph-extract", "-", stdin=json.dumps({
        "oracle": {"kind": "digraph", "digraph": digraph},
        "basis": ["x", "x - 1"]}), monkeypatch=monkeypatch)
    assert (code, doc["status"]) == (1, "fail")
    assert doc["config"]["error_type"] == "ValidationError"
    assert doc["witness"]["witnesses"]["structural"] == witness


@pytest.mark.parametrize("payload,missing", [
    ({"n": 2, "d": 0, "charts": [[0, 1], [2]]}, [0, 1]),
    ({"n": 2, "d": -4, "charts": [[0, 1], [1, 2], [0, 2]]}, [0, 1, 2]),
])
def test_chart_family_without_coordinate_charts_fails(capsys, monkeypatch,
                                                      payload, missing):
    code, doc = run(capsys, "cech-projective", "-", stdin=json.dumps(payload),
                    monkeypatch=monkeypatch)
    assert (code, doc["status"]) == (1, "fail")
    assert doc["config"]["error_type"] == "ValidationError"
    assert doc["witness"] == missing


@pytest.mark.parametrize("space,message", [
    ({"points": [0, 1], "below": [[0, 5]]}, "5 is not a point"),
    ({"points": [0, 0]}, "repeated point"),
])
def test_malformed_finite_space_exit_code(capsys, monkeypatch, space, message):
    code, doc = run(capsys, "digraph-validate", "-", stdin=json.dumps({
        "op": "zz-extract", "space": space, "assignment": []}),
        monkeypatch=monkeypatch)
    assert (code, doc["status"]) == (2, "error")
    assert doc["config"]["error_type"] == "DomainError"
    assert message in doc["result"]["error"]


def test_hom_from_empty_ideal_fails_validation(capsys, monkeypatch):
    code, doc = run(capsys, "baer", "-", stdin=json.dumps({
        "op": "hom-from-ideal", "finite_ring": {"zmod": 4}, "ideal": []}),
        monkeypatch=monkeypatch)
    assert (code, doc["status"]) == (1, "fail")
    assert doc["config"]["error_type"] == "ValidationError"


def test_budget_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NOETHER_BUDGET_MAX_DEGREE", "2")
    path = write_payload(tmp_path, {
        "ring": {"field": "q", "vars": ["x"]}, "generators": ["x^5"]})
    code, doc = run(capsys, "groebner", path)
    assert code == 3
    assert doc["config"]["error_type"] == "ResourceBudgetError"


def test_text_rendering(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "op": "membership", "ring": {"field": "q", "vars": ["x"]},
        "ideal": ["x^2"], "element": "x^3"})
    code = main(["ideal", path, "--text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ideal: PASS" in out


def test_json_output_is_deterministic_modulo_timing(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "ring": {"field": "q", "vars": ["x", "y"]},
        "generators": ["x^2 - 1", "x*y - 1"]})
    docs = []
    for _ in range(2):
        _, doc = run(capsys, "groebner", path)
        doc.pop("timings")
        docs.append(doc)
    assert docs[0] == docs[1]
