"""The command-line interface: JSON payloads in, deterministic reports out,
and the documented exit-code contract (0 pass, 1 fail, 2 parse, 3 resource)."""

import argparse
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from noether.cli import FLAGS, _build_parser, _load_payload, main
from noether.config import Budgets
from noether.errors import ParseError
from noether.jobs import (COMMANDS, DIGRAPH, NODE, REQUIRED, SCHEMAS, JobSpec, Variants,
                          parse_job, run_job)


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
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


def test_inverting_zero_divisor_of_quotient_rejected_at_load():
    # x^2 and x are zero divisors modulo x^2, and (1) leaves no ring at all.
    for ring, name in [({"quotient": ["x^2"], "inverted": ["x^2"]}, "Q[x]/(x^2)[1/(x^2)]"),
                       ({"quotient": ["x^2"], "inverted": ["x"]}, "Q[x]/(x^2)[1/(x)]"),
                       ({"quotient": ["1"]}, "Q[x]/(1)")]:
        report = run_job(JobSpec("groebner", {"ring": ring, "generators": ["x - 3"]}))
        assert (report.exit_code, report.result) == (2, {"error": f"{name} is the zero ring"})


@pytest.mark.parametrize("ring", [{"vars": ["x"]}, {"vars": ["x"], "inverted": ["x"]},
                                  {"vars": ["x", "y"], "inverted": ["x"]}])
def test_a_basis_checks_the_degree_budget_on_its_input_generators(ring):
    # The product x^80 - x^40 is past the default budget of 64, though its
    # saturation by x, x^40 - 1, is not: every ring refuses it alike.
    payload = {"op": "combine", "mode": "product", "ring": ring,
               "left": ["x^40"], "right": ["x^40 - 1"]}
    report = run_job(JobSpec("ideal", payload))
    assert (report.exit_code, report.result) == (
        3, {"error": "budget 'max_degree' exceeded (limit 64)"})


def test_a_quotient_is_read_under_the_jobs_degree_budget():
    payload = {"ring": {"quotient": ["x^100 - 1"]}, "generators": ["x^2 - 1"]}
    report = run_job(JobSpec("groebner", payload, Budgets(max_degree=128)))
    assert (report.exit_code, report.result["basis"]) == (0, ["x^2 - 1"])


@pytest.mark.parametrize("fractions", [{}, {"fractions": []}])
def test_clear_denominators_returns_canonical_bases(fractions):
    # A node's ideal is read in canonical form whether or not it has fractions.
    digraph = {"nodes": [{"open": "1", "gens": ["x^2 - x", "2*x - 2"], **fractions},
                         {"open": "x", "gens": ["x^2 - 1", "x - 1"]}], "edges": [[0, 1]]}
    report = run_job(JobSpec("digraph-validate", {"op": "clear-denominators",
                                                  "digraph": digraph}))
    assert [n["gens"] for n in report.result["nodes"]] == [["x - 1"], ["x - 1"]]


@pytest.mark.parametrize("command,payload", [
    ("digraph-validate", {"op": "validate"}), ("digraph-validate", {"op": "clear-denominators"}),
    ("digraph-eval", {"op": "evaluate", "open": "x"}),
    ("digraph-eval", {"op": "membership", "open": "x", "numerator": "x"}),
    ("digraph-eval", {"op": "quasi-coherent", "basis": ["x"]}),
    ("digraph-extract", {"basis": ["x"]}),
])
@pytest.mark.parametrize("edges", [[], [[0, 1]]])
def test_an_empty_node_open_exits_2(command, payload, edges):
    digraph = {"nodes": [{"open": "1", "gens": ["x"]}, {"open": "0", "gens": ["1"]}],
               "edges": edges}
    if command == "digraph-extract":
        payload = dict(payload, oracle={"kind": "digraph", "digraph": digraph})
    else:
        payload = dict(payload, digraph=digraph)
    report = run_job(JobSpec(command, payload))
    assert (report.exit_code, report.result) == (
        2, {"error": "empty open has no coordinate ring here"})


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
    # Depths 7 and 8 build x^128 - 1 and x^256 - 1, within the level's
    # degree budget of 2^depth.
    for depth, field in (("3", "fp:5"), ("7", "q"), ("8", "q")):
        code, doc = run(capsys, "etale", "--depth", depth, "--field", field,
                        "--exponent-rule", "literal")
        assert (code, doc["status"]) == (1, "fail"), (depth, field)
        assert doc["result"]["failing_level"] == 3


def test_parse_error_exit_code(capsys, monkeypatch):
    code, doc = run(capsys, "ideal", "-", stdin="not json",
                    monkeypatch=monkeypatch)
    assert code == 2
    assert doc["status"] == "error"


def test_a_stray_character_after_a_space_exits_2_naming_it(capsys, monkeypatch):
    payload = {"op": "membership", "ring": {"field": "q", "vars": ["x"]},
               "ideal": ["x $"], "element": "x"}
    code, doc = run(capsys, "ideal", "-", stdin=json.dumps(payload),
                    monkeypatch=monkeypatch)
    assert (code, doc["status"], doc["result"]) == (
        2, "error", {"error": "unexpected character '$'"})


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


def test_cli_flags_write_keys_every_op_takes():
    # A flag writes one payload key; every op of its command must take that
    # key, so an option dropped from SCHEMAS cannot leave a flag behind.
    parser = _build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    written = set()
    for command, sub in commands.items():
        schema = SCHEMAS[command]
        ops = ([{schema.tag, *keys} for keys in schema.values()]
               if isinstance(schema, Variants) else [set(schema)])
        for action in sub._actions:
            if not action.option_strings or action.dest in ("help", "fmt"):
                continue
            flag = action.option_strings[0]
            value = action.choices[0] if action.choices else "1"
            payload = _load_payload(parser.parse_args([command, flag, value]))
            assert len(payload) == 1, (command, flag, payload)
            assert all(set(payload) <= keys for keys in ops), (command, flag, payload)
            written.add((command, *payload))
    assert written == {("cech-projective", "n"), ("cech-projective", "d"),
                       ("etale", "depth"), ("etale", "field"), ("etale", "rule"),
                       ("etale", "op")}


def test_flag_table_writes_schema_keys_and_the_benchmarked_forms():
    for command, flags in FLAGS.items():
        schema = SCHEMAS[command]
        schemas = list(schema.values()) if isinstance(schema, Variants) else [schema]
        tags = {schema.tag} if isinstance(schema, Variants) else set()
        for flag, key, _, _ in flags:
            assert all(key in keys or key in tags for keys in schemas), (command, flag)
    parser = _build_parser()
    for argv, payload in [
        (["cech-projective", "--n", "1", "--d", "-3"], {"n": 1, "d": -3}),
        (["etale", "--depth", "3", "--field", "q", "--exponent-rule", "power"],
         {"depth": 3, "field": "q", "rule": "power"}),
    ]:
        assert _load_payload(parser.parse_args(argv)) == payload


def test_empty_field_flag_exits_2_like_the_payload(capsys, monkeypatch):
    flag = run(capsys, "etale", "--depth", "2", "--field", "")
    payload = run(capsys, "etale", "-", stdin='{"depth": 2, "field": ""}',
                  monkeypatch=monkeypatch)
    for _, doc in (flag, payload):
        doc.pop("timings")
    assert flag == payload
    assert flag[0] == 2
    assert "unknown field descriptor ''" in flag[1]["result"]["error"]


def test_json_flag_is_refused(capsys):
    code, doc = run(capsys, "groebner", "--json")
    assert (code, doc) == (2, {"status": "error", "error": "unrecognized arguments: --json"})


@pytest.mark.parametrize("argv,message", [
    (["etale", "--bogus"], "unrecognized arguments: --bogus"),
    (["cech-projective", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_print_the_json_error(capsys, argv, message):
    code, doc = run(capsys, *argv)
    assert (code, doc) == (2, {"status": "error", "error": message})


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: noether")


@pytest.mark.parametrize("var", ["NOETHER_BUDGET_MAX_DEGRE", "NOETHER_BUDGET_EXTRACTION_DEPTH",
                                 "NOETHER_BUDGET_max_degree", "NOETHER_BUDGET_"])
def test_unknown_budget_variable_exits_2_on_both_channels(capsys, monkeypatch, var):
    # The CLI and parse_job share one loader, so they refuse alike.
    monkeypatch.setenv(var, "1")
    message = f"unknown budget field {var!r}"
    code, doc = run(capsys, "etale", "--depth", "2")
    assert (code, doc) == (2, {"status": "error", "error": message})
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_job('{"command": "groebner"}')


def test_readme_lists_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Subcommands:", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`([a-z-]+)`", listed) == list(COMMANDS)


def schema_entries(kind):
    """(key, kind) for every key of a kind (see SCHEMAS), of its variants and
    of the kinds nested in it."""
    if isinstance(kind, tuple):
        for alternative in kind:
            yield from schema_entries(alternative)
    elif isinstance(kind, list):
        yield from schema_entries(kind[0])
    elif isinstance(kind, Variants):
        yield kind.tag, str
        for schema in kind.values():
            yield from schema_entries(schema)
    elif isinstance(kind, dict):
        for key, (sub, _) in kind.items():
            yield key, sub
            yield from schema_entries(sub)


def test_readme_payload_keys_are_schema_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Every key a command takes", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`([a-z_]+)`", paragraph))
    ops = {op for schema in SCHEMAS.values() if isinstance(schema, Variants) for op in schema}
    budgets = set(Budgets.FIELDS)
    keys = named - set(COMMANDS) - ops - budgets - {"true"}  # true: a JSON value
    assert {"op", "kind", "digraph", "gens", "n", "d", "depth", "rank"} <= keys
    entries = [entry for schema in SCHEMAS.values() for entry in schema_entries(schema)]
    assert keys <= {key for key, _ in entries}
    assert set(SCHEMAS["cech-projective"]) == {"n", "d"}
    # "A digraph is always the nested `digraph` object, and a node's
    # generators are its `gens`."
    assert all(kind is DIGRAPH for key, kind in entries if key == "digraph")
    assert DIGRAPH["nodes"][0] == [NODE]
    assert set(NODE) == {"open", "gens", "fractions"} and NODE["gens"][0] == [str]


def test_parse_job_document():
    job = parse_job('{"command": "ideal", "payload": {"ideal": ["x"]}, '
                    '"budgets": {"max_degree": 7}}')
    assert (job.command, job.payload) == ("ideal", {"ideal": ["x"]})
    assert job.budgets == Budgets(max_degree=7)


@pytest.mark.parametrize("text,message", [
    ('{"command": "nonsense"}', "unknown command 'nonsense'"),
    ('{"command": "groebner", "budgets": {"max_dgree": 7}}',
     "unknown budget field 'max_dgree'"),
    ('{"command": "groebner", "budgets": {"from_env": 7}}',
     "unknown budget field 'from_env'"),
    ('{"command": "digraph-extract", "budgets": {"extraction_depth": 32}}',
     "unknown budget field 'extraction_depth'"),
    ('{"command": "groebner", "budgets": {"max_degree": "abc"}}',
     "budget 'max_degree' must be an integer"),
    ('{"command": "groebner", "budgets": [1]}', "budgets must be a JSON object"),
    ('{"command": "groebner", "payload": [1]}', "payload must be a JSON object"),
    ('{"command": "ideal", "payload": {"op": "membership", "ideal": ["x"], "element": "x^9"}, '
     '"budget": {"max_degree": 8}}', "unknown key 'budget' in 'job'"),
    ('["groebner"]', "job must be a JSON object"),
    ("  ", "empty job input"),
    ('{"command": ', "invalid JSON job"),
])
def test_parse_job_rejects(text, message):
    with pytest.raises(ParseError, match=message):
        parse_job(text)


@pytest.mark.parametrize("command,payload,key", [
    ("groebner", {"ring": {"field": 5}}, "'field' must be a string"),
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
    ("digraph-validate", {"digraph": {"nodes": 5}}, "'nodes'"),
    ("digraph-validate", {"digraph": {"nodes": [{"open": "1"}],
                                      "edges": [[0, 1, 2]]}}, "'edges'"),
    ("digraph-validate", {"op": "zz-extract",
                          "space": {"points": [0], "below": [[0]]}}, "'below'"),
    ("cech-affine", {"cover": 5}, "'cover'"),
    ("digraph-extract", {"oracle": 5}, "'oracle'"),
    ("baer", {"module": {"kind": "quotient", "relations": [5]}}, "'relations'"),
    ("baer", {"module": {"kind": "free", "rank": -1}}, "'rank'"),
    ("baer", {"op": "hom-from-ideal", "ideal": 5}, "'ideal'"),
    ("baer", {"finite_ring": {"gf_quotient": {"p": 2, "modulus": 5}}},
     "'modulus'"),
    ("groebner", {"generator": ["x^2"]}, "unknown key 'generator'"),
    ("groebner", {"ring": {"feild": "fp:5"}}, "unknown key 'feild'"),
    ("digraph-validate", {"op": "validate", "ring": {"vars": ["x"]},
                          "nodes": [{"open": "1", "gens": []}], "edges": [],
                          "root": 0}, "unknown key 'ring'"),
    ("cech-projective", {"n": 2, "d": 3, "window": 1}, "unknown key 'window'"),
    ("cech-affine", {"op": "nonsense"}, "op 'nonsense'"),
    ("digraph-extract", {"op": "evaluate"}, "unknown key 'op'"),
    ("groebner", {"generators": ["x"], "canonical": True}, "unknown key 'canonical'"),
    ("cech-projective", {"n": 1, "d": 0, "charts": [[0], [1]]}, "unknown key 'charts'"),
    ("digraph-validate", {"digraph": {"nodes": [{"open": "1", "generators": []}]}},
     "unknown key 'generators'"),
    ("open", {"op": "contains", "a": {"f": "x"}, "b": "1"}, "'a' must be a string"),
    ("baer", {"module": {"kind": "quotient", "name": "M"}}, "unknown key 'name'"),
    ("baer", {"op": "envelope", "bound": 256}, "unknown key 'bound'"),
    ("etale", {"op": "level", "n": 2}, "unknown key 'n'"),
    ("groebner", {"ring": {"vars": ["x", "y", "x"]}, "generators": ["x"]}, "'vars'"),
    ("groebner", {"ring": {"vars": ["x"]}, "generators": ["1" * 5000 + "*x"]},
     "integer literal at column 0 is too long"),
    ("digraph-validate", {"op": "zz-extract", "space": {"points": [0, 1], "below": [[0, 1]]},
                          "assignment": [{"open": [0, 1], "n": 4}, {"open": [0, 0, 1], "n": 8},
                                         {"open": [0], "n": 2}]},
     "'assignment' open [0, 0, 1] repeats an open"),
    ("digraph-validate", {"op": "zz-extract", "space": {"points": [0, 1], "below": [[0, 1]]},
                          "assignment": [{"open": [0, 1], "n": 4}, {"open": [7], "n": 2}]},
     "'assignment' open [7] names a non-point"),
])
def test_wrong_payload_type_exit_code(capsys, monkeypatch, command, payload, key):
    code, doc = run(capsys, command, "-", stdin=json.dumps(payload),
                    monkeypatch=monkeypatch)
    assert (code, doc["status"]) == (2, "error")
    assert doc["config"]["error_type"] == "ParseError"
    assert key in doc["result"]["error"]


def test_run_job_checks_a_plain_dict_payload():
    report = run_job(JobSpec("ideal", {"op": "membership", "ideal": ["x"]}))
    assert (report.exit_code, report.config["error_type"]) == (2, "ParseError")
    assert report.result["error"] == "missing required key 'element'"


def test_module_vector_outside_the_module_exits_2():
    # span never returned on a relation longer than the rank, so the job runs
    # in its own process under a timeout.
    payload = {"module": {"kind": "quotient", "rank": 1, "relations": [[0, 1]]}}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "noether.cli", "baer", "-"],
                          input=json.dumps(payload), capture_output=True,
                          text=True, env=env, timeout=30)
    assert done.returncode == 2, done.stderr
    assert "'relations'" in json.loads(done.stdout)["result"]["error"]


@pytest.mark.parametrize("command,payload,what", [
    ("ideal", {"op": "enumerate-ideals", "finite_ring": {"zmod": 9}}, "Z/9"),
    ("baer", {"finite_ring": {"gf_quotient": {"p": 3, "modulus": [1, 0, 1, 0]}}},
     "F3[x] modulo a polynomial of degree 2"),
    ("baer", {"module": {"kind": "free", "rank": 2}}, "Z/4^2"),
    ("baer", {"module": {"kind": "submodule", "rank": 3, "generators": []}},
     "Z/4^3"),
    ("baer", {"op": "direct-sum", "modules": [{"kind": "quotient", "rank": 2}]},
     "Z/4^2"),
])
def test_finite_ring_bound_checked_before_building(command, payload, what):
    report = run_job(parse_job(json.dumps({
        "command": command, "payload": payload,
        "budgets": {"finite_ring_bound": 8}})))
    assert (report.exit_code, report.config["error_type"]) == (3, "BoundExceededError")
    assert report.result["error"].startswith(f"{what} has more than 8 elements")


# Schema fuzzing: payloads of the shape SCHEMAS describes, then one defect.
TEXTS = ["x", "y", "x^2 - 1", "x*y + 1", "1", "0", "x^", "", "q", "fp:5",
         "fp:4", "power", "sum", "intersection", "ring"]
SMALL_INTS = st.integers(-2, 6)
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | st.sampled_from(TEXTS),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(TEXTS), inner, max_size=2)),
    max_leaves=4)


def shaped(kind):
    """Values of ``kind``; each key with a default may be left out."""
    if isinstance(kind, tuple):
        return st.one_of([shaped(k) for k in kind])
    if isinstance(kind, list):
        return st.lists(shaped(kind[0]), max_size=3)
    if isinstance(kind, Variants):
        return st.sampled_from(sorted(kind)).flatmap(
            lambda tag: shaped(kind[tag]).map(lambda v: {kind.tag: tag, **v}))
    if isinstance(kind, dict):
        return st.fixed_dictionaries(
            {k: shaped(sub) for k, (sub, d) in kind.items() if d is REQUIRED},
            optional={k: shaped(sub) for k, (sub, d) in kind.items()
                      if d is not REQUIRED})
    return {int: SMALL_INTS, str: st.sampled_from(TEXTS)}[kind]


def slots(value):
    """Every (container, key) pair inside ``value``."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in list(items):
        yield value, key
        yield from slots(item)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_schema_fuzz_exits_with_one_report(data, capsys, monkeypatch):
    command = data.draw(st.sampled_from(sorted(SCHEMAS)))
    payload = data.draw(shaped(SCHEMAS[command]))
    # A valid suite payload would run the whole acceptance battery.
    defect = ("add" if command == "suite" else
              data.draw(st.sampled_from(["none", "drop", "add", "swap"])))
    places = list(slots(payload))
    keyed = [(box, key) for box, key in places if isinstance(box, dict)]
    if defect == "drop" and keyed:
        box, key = data.draw(st.sampled_from(keyed))
        del box[key]
    elif defect == "swap" and places:
        box, key = data.draw(st.sampled_from(places))
        box[key] = data.draw(SMALL_JSON)
    elif defect == "add":
        objects = [payload] + [box[key] for box, key in places if isinstance(box[key], dict)]
        data.draw(st.sampled_from(objects))["unknown"] = data.draw(SMALL_JSON)
    # A Baer chain with K = 6 over Z/3 runs for minutes under the default
    # bound; a small one keeps every job to seconds and reaches exit 3.
    monkeypatch.setenv("NOETHER_BUDGET_BAER_BOUND", "64")
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    code = main([command, "-"])
    json.loads(capsys.readouterr().out)
    assert code in (0, 1, 2, 3)


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


@pytest.mark.parametrize("entry", [[], [1]])  # [1] is no open: 0 <= 1
def test_zz_assignment_off_the_connected_opens_fails_validation(capsys, monkeypatch, entry):
    code, doc = run(capsys, "digraph-validate", "-", stdin=json.dumps({
        "op": "zz-extract", "space": {"points": [0, 1], "below": [[0, 1]]},
        "assignment": [{"open": [0], "n": 2}, {"open": [0, 1], "n": 4},
                       {"open": entry, "n": 2}]}), monkeypatch=monkeypatch)
    assert (code, doc["status"]) == (1, "fail")
    assert doc["config"]["error_type"] == "ValidationError"
    assert doc["witness"] == entry


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


@pytest.mark.parametrize("payload", [
    {"op": "suite", "depth": 9},
    {"op": "level", "depth": 100000},
    {"op": "cover-map", "depth": 16},
    {"op": "strictness", "depth": 18},
    {"op": "maximality", "depth": 9},
])
def test_etale_depth_past_the_budget_exit_code(capsys, monkeypatch, payload):
    # Each is refused before a level is built; run, these depths take tens
    # of seconds or longer.
    code, doc = run(capsys, "etale", "-", stdin=json.dumps(payload),
                    monkeypatch=monkeypatch)
    assert (code, doc["config"]["error_type"]) == (3, "ResourceBudgetError")
    assert doc["result"]["error"] == (f"depth {payload['depth']} exceeds "
                                      "the configured maximum 8")


def test_a_huge_power_is_refused_while_parsed():
    # The power used to be expanded in full, for minutes, before the degree
    # budget was met, so the job runs in its own process under a timeout.
    payload = {"ring": {"vars": ["x", "y"]}, "generators": ["(x + y + 1)^200"]}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "noether.cli", "groebner", "-"],
                          input=json.dumps(payload), capture_output=True,
                          text=True, env=env, timeout=30)
    assert done.returncode == 3, done.stderr
    assert json.loads(done.stdout)["config"]["error_type"] == "ResourceBudgetError"
    # The job's own budget bounds its texts.
    report = run_job(parse_job(json.dumps({
        "command": "ideal", "budgets": {"max_degree": 8},
        "payload": {"op": "membership", "ideal": ["x"], "element": "x^9"}})))
    assert (report.exit_code, report.config["error_type"]) == (3, "ResourceBudgetError")


_ON_Q = {"ring": {"field": "q", "vars": ["x"]}, "generators": ["x"]}
_PAST_A_LIMIT = "invalid JSON payload: nested too deeply or integer too long"


@pytest.mark.parametrize("command,text,message", [
    ("groebner", "[" * 100_000 + "]" * 100_000, _PAST_A_LIMIT),
    ("baer", '{"finite_ring": {"zmod": ' + "7" * 5000 + "}}", _PAST_A_LIMIT),
    ("groebner", json.dumps({**_ON_Q, "ring": {"field": "fp:" + "7" * 5000, "vars": ["x"]}}),
     "'field' modulus has too many digits"),
    ("groebner", json.dumps({**_ON_Q, "generators": ["(" * 500 + "x" + ")" * 500]}),
     "parentheses nested too deeply"),
], ids=["deep-json", "long-integer", "long-modulus", "deep-parentheses"])
def test_a_malformed_input_past_a_python_limit_exits_2(command, text, message):
    # Each input passes a Python limit (recursion depth or digits converted)
    # whose error must not escape as a traceback, so each runs as its own CLI
    # process.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "noether.cli", command, "-"], input=text,
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and "Traceback" not in done.stderr, done.stderr
    doc = json.loads(done.stdout)
    assert (doc["status"], doc.get("result", doc).get("error")) == ("error", message)


def test_a_long_budget_integer_in_a_job_document_is_a_parse_error():
    with pytest.raises(ParseError, match="invalid JSON job: nested too deeply or integer too long"):
        parse_job('{"command": "groebner", "budgets": {"max_pairs": ' + "9" * 5000 + "}}")


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
