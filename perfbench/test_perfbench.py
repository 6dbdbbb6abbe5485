"""Tests of the benchmark itself: generator, oracle, metric names, spans.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from radonmono import FieldSpec, expand, parse_element, parse_fundamental_data, validate  # noqa: E402
from radonmono.cli import main as cli_main  # noqa: E402
from radonmono.group import reduce_element_modp  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_generator_is_deterministic(tmp_path):
    def written(seed, sub):
        return [open(path, "rb").read() for _, path in synth.write_inputs(seed, str(tmp_path / sub))]

    assert written(7, "a") == written(7, "b")
    assert written(7, "a") != written(8, "c")


def test_generated_inputs_are_valid_product_one_data():
    for (field, n, r, lengths), (name, doc) in zip(synth.SHAPES, synth.synth_inputs(3)):
        fd = parse_fundamental_data(json.loads(synth.input_bytes(doc)), source=name)
        assert (fd.n, fd.r) == (n, r)
        assert validate(fd).product_ok, name
        assert [len(expand(w, r).letters) for w in fd.omegas] == list(lengths)


def test_exact_group_build_is_deterministic(tmp_path):
    a = workloads.build("exact_group", 5, str(tmp_path / "a"), ROOT)
    b = workloads.build("exact_group", 5, str(tmp_path / "b"), ROOT)
    assert [op.key for op in a.rounds["exact"]] == [op.key for op in b.rounds["exact"]]
    expected = oracle.load_expected()["exact_group"]
    assert all(op.key in expected for op in a.rounds["exact"])


def _compute(tmp_path, source):
    out = str(tmp_path / "out.json")
    assert cli_main(["compute", "--input", source, "--output", out]) == 0
    return out


def test_corrupted_compute_output_counts_as_failed(tmp_path):
    out = _compute(tmp_path, "fixture:zariski_c")
    record = oracle.load_expected()["fixtures"]["zariski_c/compute"]
    assert oracle.judge("compute", 0, out, record) == oracle.OK
    doc = json.load(open(out))
    doc["gtilde"][0][0][0] = "7"
    json.dump(doc, open(out, "w"))
    verdict = oracle.judge("compute", 0, out, record)
    assert not verdict.ok and verdict.wrong


def test_corrupted_group_output_counts_as_failed(tmp_path):
    out = str(tmp_path / "group.json")
    assert cli_main(["group", "--input", "fixture:scalar_group", "--output", out]) == 0
    record = oracle.load_expected()["fixtures"]["scalar_group/group"]
    assert oracle.judge("group", 0, out, record).ok
    doc = json.load(open(out))
    doc["group"]["new_key"] = "extra keys are allowed"
    json.dump(doc, open(out, "w"))
    assert oracle.judge("group", 0, out, record).ok
    doc["group"]["derived_series"] = [6, 2, 1]
    json.dump(doc, open(out, "w"))
    verdict = oracle.judge("group", 0, out, record)
    assert not verdict.ok and verdict.wrong


def test_nonzero_exit_fails_without_being_wrong(tmp_path):
    verdict = oracle.judge("group", 1, str(tmp_path / "missing"), {"exit": 1})
    assert not verdict.ok and not verdict.wrong


def test_structure_check_catches_singular_output(tmp_path):
    (name, path), *_ = [p for p in synth.write_inputs(2, str(tmp_path)) if p[0].startswith("q_")]
    field, n, r, _ = next(s for s in synth.SHAPES if synth.shape_name(*s[:3]) == name)
    out = _compute(tmp_path, path)
    check = lambda text: oracle.compute_structure(json.loads(text), synth.FIELDS[field], n, r)  # noqa: E731
    assert oracle.judge("compute", 0, out, None, check).ok
    doc = json.load(open(out))
    doc["gtilde"][0][0] = ["0"] * len(doc["gtilde"][0][0])
    json.dump(doc, open(out, "w"))
    assert oracle.judge("compute", 0, out, None, check).wrong


def test_paper_values_are_checked():
    good = {"order": 648, "derived_series": [648, 216, 54, 27, 3, 1], "solvable": True}
    assert oracle.paper_check("zariski_c", good) == ""
    assert oracle.paper_check("zariski_c", dict(good, derived_series=[648, 216, 1])) != ""
    perfect = {"order": 155520, "derived_series": [155520, 51840, 51840], "solvable": False}
    assert oracle.paper_check("zariski_cprime", perfect) == ""
    assert oracle.paper_check("zariski_cprime", dict(perfect, derived_series=[155520, 51840, 1])) != ""


@pytest.mark.parametrize("text", ["0", "-1", "z - 1", "-3/2*z + 5", "1 - z", "7/3"])
def test_element_reduction_matches_the_package(text):
    spec = FieldSpec.cyclotomic(6)
    for p in oracle.CHECK_PRIMES:
        zeta = oracle._zeta6_mod(p)
        assert oracle._element_mod_p(text, p, zeta) == reduce_element_modp(parse_element(text, spec), p)


def test_metric_names_and_declaration_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    e2e = [m["name"] for m in doc["end_to_end"]]
    per_layer = [m["name"] for m in doc["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(run.PER_LAYER)
    names = e2e + per_layer + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in doc["end_to_end"]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.BUILDERS)


def test_span_tree_nests(tmp_path):
    tracer = spans.Tracer()
    out = str(tmp_path / "out.json")
    with tracer.installed():
        for extra in (["compute"], ["group", "--exact"]):
            with tracer.span("cli.main"):
                assert cli_main([*extra, "--input", "fixture:scalar_group", "--output", out]) == 0
    assert not tracer.missing
    assert spans.check_nesting(tracer.spans) == []
    names = {rec[2] for rec in tracer.spans}
    assert {"cli.main", "radon.load", "cocycle.trafodat", "cocycle.phibar", "group.closure"} <= names
    selfs = spans.self_times(tracer.spans)
    assert min(selfs.values()) > -1e-9
    roots = [rec for rec in tracer.spans if rec[1] is None]
    assert len(roots) == 2
    assert sum(selfs.values()) == pytest.approx(sum(r[4] - r[3] for r in roots))
    table = spans.summarize(tracer.spans)
    assert table["cli.main"]["calls"] == 2
    assert table["cocycle.phibar"]["letters"] > 0


def test_span_tree_problems_are_reported():
    bad = [[0, None, "a", 0.0, 1.0, None], [1, 0, "b", 0.5, 2.0, None]]
    assert spans.check_nesting(bad)


def test_vanished_functions_give_null_metrics():
    tracer = spans.Tracer()
    with tracer.installed([("radonmono.cli", "no_such_function", "x.y", None)]):
        pass
    assert tracer.missing == ["radonmono.cli.no_such_function"]

    def gone():
        raise AttributeError("module 'radonmono' has no attribute 'closure'")

    out = {}
    layers._guard(out, "group.closure_s", gone)
    assert out["group.closure_s"] is None
    assert "group.closure_s" in out["_errors"]
