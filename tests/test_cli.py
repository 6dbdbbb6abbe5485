import json
import os
import subprocess
import sys
import time

import pytest

from radonmono.cli import build_parser, fixture_path, main
from radonmono.field import FieldSpec
from radonmono.group import DEFAULT_CAP


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "radonmono", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_compute_four_lines(tmp_path):
    code, out, err = run_cli(["compute", "--input", fixture_path("four_lines")])
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"E": 1, "H": 3, "W": 2}
    assert len(doc["gtilde"]) == 6
    assert doc["report"]["gtilde_product_identity"] is True


def test_compute_zariski_c():
    code, out, _ = run_cli(["compute", "--input", "fixture:zariski_c"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == {"E": 1, "H": 5, "W": 4}
    assert len(doc["gtilde"]) == 18


def test_compute_deterministic_output():
    _, out1, _ = run_cli(["compute", "--input", "fixture:four_lines", "--verify"])
    _, out2, _ = run_cli(["compute", "--input", "fixture:four_lines", "--verify"])
    assert out1 == out2


def test_compute_output_file(tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        ["compute", "--input", "fixture:four_lines", "--output", str(target)]
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["dims"]["W"] == 2


def test_rank_outputs():
    code, out, _ = run_cli(["rank", "--input", "fixture:four_lines"])
    assert code == 0 and out == "2\n"
    code, out, _ = run_cli(["rank", "--input", "fixture:zariski_c"])
    assert code == 0 and out == "4\n"
    code, out, _ = run_cli(["rank", "--input", "fixture:zariski_cprime"])
    assert code == 0 and out == "4\n"


def test_check_four_lines():
    code, out, _ = run_cli(["check", "--input", "fixture:four_lines"])
    assert code == 0
    doc = json.loads(out)
    assert doc["product_ok"] and doc["vankampen_ok"]
    assert doc["relations_checked"] == 3 and doc["relations_ok"] is True


def test_check_without_relations_passes():
    code, out, _ = run_cli(["check", "--input", "fixture:zariski_c"])
    assert code == 0
    doc = json.loads(out)
    assert doc["relations_checked"] == 0 and doc["relations_ok"] is True


def test_exit_code_on_bad_product(tmp_path, four_lines_doc):
    doc = json.loads(json.dumps(four_lines_doc))
    doc["matrices"][0][0][0] = "1"  # tamper: product becomes -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(["compute", "--input", str(bad)])
    assert code == 2
    code, out, _ = run_cli(["check", "--input", str(bad)])
    assert code == 2
    assert json.loads(out)["product_ok"] is False


def test_exit_code_on_missing_file():
    code, _, err = run_cli(["compute", "--input", "/nonexistent/input.json"])
    assert code == 2
    assert "error" in err


def test_exit_code_on_bad_json(tmp_path):
    bad = tmp_path / "syntax.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["compute", "--input", str(bad)])
    assert code == 2
    assert "line" in err


def test_group_scalar_fixture_exact():
    code, out, _ = run_cli(["group", "--input", "fixture:scalar_group", "--exact"])
    assert code == 0
    doc = json.loads(out)
    assert doc["group"]["order"] == 6
    assert doc["group"]["solvable"] is True


def test_group_zariski_c_modular():
    code, out, _ = run_cli(
        ["group", "--input", "fixture:zariski_c", "--primes", "7,13"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["group"]["order"] == 648
    assert doc["group"]["solvable"] is True
    assert doc["group"]["decomposition"]["fixed_dim"] == 1
    assert doc["group"]["decomposition"]["moving_dim"] == 3


def test_group_cap_exceeded_reported():
    code, out, _ = run_cli(
        ["group", "--input", "fixture:scalar_group", "--exact", "--cap", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["group"]["status"] == "cap_exceeded"
    assert doc["group"]["order"] is None


def test_main_function_direct(capsys):
    assert main(["rank", "--input", fixture_path("four_lines")]) == 0
    assert capsys.readouterr().out == "2\n"


def test_unknown_fixture_is_input_error():
    code, _, err = run_cli(["rank", "--input", "fixture:missing"])
    assert code == 2


def test_group_rejects_repeated_prime():
    code, out, err = run_cli(["group", "--input", "fixture:four_lines", "--primes", "7,7"])
    assert code == 2 and out == ""
    assert "repeated prime" in err


def test_group_prime_field_input(tmp_path, four_lines_doc):
    doc = json.loads(json.dumps(four_lines_doc))
    doc["field"] = {"kind": "prime", "p": 5}
    path = tmp_path / "four_lines_gf5.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["group", "--input", str(path)])
    assert code == 0, err
    group = json.loads(out)["group"]
    assert group["mode"] == "modular" and group["primes"] == [5]
    # SL(2, 5), which is perfect
    assert group["order"] == 120 and group["derived_series"] == [120, 120]
    assert group["solvable"] is False


@pytest.mark.parametrize("bad", [["--primes", "7,x"], ["--cap", "0"], ["--cap", "-5"]])
def test_group_rejects_bad_primes_and_caps(bad):
    code, out, err = run_cli(["group", "--input", "fixture:scalar_group", *bad])
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err and "internal error" not in err


def test_group_modular_cap_exceeded_reported():
    code, out, err = run_cli(["group", "--input", "fixture:scalar_group", "--cap", "2"])
    assert code == 0, err
    group = json.loads(out)["group"]
    assert group["mode"] == "modular" and group["status"] == "cap_exceeded"
    assert group["cap"] == 2 and group["order"] is None
    assert "decomposition" in group


def _exit_and_stderr(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"braids": 5}, "key 'braids' must be an array"),
        ({"braids": "b1 b2"}, "key 'braids' must be an array"),
        ({"braids": [[True, 2]]}, "braids[0] must be a braid string or an integer array"),
        ({"relations": 7}, "key 'relations' must be an array"),
        ({"n": True}, "key 'n' has the wrong type"),
        ({"r": True}, "key 'r' has the wrong type"),
        ({"field": {"kind": "cyclotomic", "m": True}}, "field.m must be an integer"),
        ({"field": {"kind": "prime", "p": True}}, "field.p must be an integer"),
    ],
    ids=["braids-int", "braids-string", "braid-letter-bool", "relations-int", "n-bool", "r-bool", "m-bool", "p-bool"],
)
def test_bad_input_types_exit_2(tmp_path, capsys, four_lines_doc, edit, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**four_lines_doc, **edit}))
    code, out, err = _exit_and_stderr(capsys, ["compute", "--input", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("m", [3001, 10**9])
def test_conductor_bound_exits_2(tmp_path, capsys, monkeypatch, four_lines_doc, m):
    def no_field(m):
        raise AssertionError(f"Q(zeta_{m}) was built")

    monkeypatch.setattr(FieldSpec, "cyclotomic", staticmethod(no_field))
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**four_lines_doc, "field": {"kind": "cyclotomic", "m": m}}))
    for command in ("compute", "rank", "check", "group"):
        code, out, err = _exit_and_stderr(capsys, [command, "--input", str(path)])
        assert (code, out, err) == (2, "", f"error: {path}: field.m must be at most 3000, got {m}\n")


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"matrices": [[["1" * 5000]]] + [[["-1"]]] * 3}, "matrices[0][0][0]: {long} (at position 0)"),
        ({"braids": ["b1^" + "7" * 5000]}, "braids[0]: {long} (at position 3)"),
        ({"braids": ["b" + "7" * 5000]}, "braids[0]: {long} (at position 1)"),
        ({"matrices": [[["\u00b2"]]] + [[["-1"]]] * 3}, "matrices[0][0][0]: unexpected character '\u00b2' (at position 0)"),
    ],
    ids=["element", "braid-exponent", "braid-generator", "superscript-digit"],
)
def test_unreadable_integer_literal_exits_2(tmp_path, capsys, four_lines_doc, edit, message):
    # int() refuses these digit runs: over 4300 digits (Python 3.11+), or a digit that is not decimal
    path = tmp_path / "digits.json"
    path.write_text(json.dumps({**four_lines_doc, **edit}))
    message = message.format(long="integer of 5000 digits, more than the 4300 allowed")
    for command in ("compute", "rank", "check", "group"):
        assert _exit_and_stderr(capsys, [command, "--input", str(path)]) == (2, "", f"error: {path}: {message}\n")


def test_over_long_json_number_exits_2(tmp_path, capsys, four_lines_doc):
    # json.load raises a plain ValueError, not JSONDecodeError, where int() refuses the number
    path = tmp_path / "n.json"
    path.write_text(json.dumps(four_lines_doc).replace('"n": 1', '"n": ' + "1" * 5000))
    for command in ("compute", "rank", "check", "group"):
        code, out, err = _exit_and_stderr(capsys, [command, "--input", str(path)])
        assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith(f"error: {path}: ")


def test_over_long_output_number_exits_2(tmp_path, capsys, four_lines_doc):
    # 2^15000 has 4516 digits: the literal is short, the printed tuple would not be
    path = tmp_path / "long.json"
    path.write_text(json.dumps({**four_lines_doc, "matrices": [[["(2)^15000"]], [["(2)^-15000"]], [["-1"]], [["-1"]]]}))
    for command in ("compute", "group"):
        code, out, err = _exit_and_stderr(capsys, [command, "--input", str(path)])
        assert (code, out, err) == (2, "", "error: an output number is longer than 4300 digits\n")
    for command in ("rank", "check"):
        assert _exit_and_stderr(capsys, [command, "--input", str(path)])[0] == 0


@pytest.mark.parametrize("flags", [[], ["--exact"]], ids=["modular", "exact"])
def test_singular_output_generator_exits_2(capsys, flags):
    # the braid words of this input move the tuple, and one output generator is singular
    path = os.path.join(os.path.dirname(__file__), "data", "q_identity_entry.json")
    code, out, err = _exit_and_stderr(capsys, ["group", "--input", path, *flags])
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert (code, out, errors) == (2, "", ["error: generator is singular"])


@pytest.mark.parametrize("p", [318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981])
def test_strong_pseudoprime_modulus_exits_2(tmp_path, capsys, p):
    # the first is 399,165,290,221 x 798,330,580,441, so 1/399165290221 has no inverse
    doc = {"field": {"kind": "prime", "p": p}, "n": 1, "r": 2, "braids": ["b1^2"]}
    doc["matrices"] = [[["1/399165290221"]], [["399165290221"]]]
    path = tmp_path / "psp.json"
    path.write_text(json.dumps(doc))
    for command in ("compute", "rank", "check", "group"):
        code, out, err = _exit_and_stderr(capsys, [command, "--input", str(path)])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and str(p) in err


@pytest.mark.parametrize(
    "field, message",
    [
        ({"kind": "prime", "p": 6}, "prime field needs a prime modulus, got 6"),
        ({"kind": "cyclotomic", "m": 0}, "cyclotomic field needs a conductor >= 1, got 0"),
    ],
    ids=["p6", "m0"],
)
def test_bad_field_names_the_input_file(tmp_path, capsys, four_lines_doc, field, message):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({**four_lines_doc, "field": field}))
    for command in ("compute", "rank", "check", "group"):
        code, out, err = _exit_and_stderr(capsys, [command, "--input", str(path)])
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


def test_group_on_the_zero_module_prints_null_moving_keys(tmp_path, capsys):
    # n = 1, r = 2, g = (z, z^2) over Q(zeta_3) has dim W = 0
    doc = {"field": {"kind": "cyclotomic", "m": 3}, "n": 1, "r": 2, "braids": ["b1^2", "b1"]}
    doc["matrices"] = [[["z"]], [["z^2"]]]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    for flags in ([], ["--exact"]):
        code, out, err = _exit_and_stderr(capsys, ["group", "--input", str(path), *flags])
        deco = json.loads(out)["group"]["decomposition"]
        assert code == 0 and deco["moving_dim"] == 0
        assert deco["moving_irreducible_by_spinning"] is None and deco["moving_endomorphism_dim"] is None


def test_unreadable_input_exits_2(tmp_path, capsys):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"description": "caf\xe9"}')
    missing = tmp_path / "missing.json"
    for path in (tmp_path, undecodable, missing):
        code, out, err = _exit_and_stderr(capsys, ["rank", "--input", str(path)])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
    assert err == f"error: input file not found: {missing}\n"


def test_output_in_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "out.json"
    code, out, err = _exit_and_stderr(capsys, ["rank", "--input", "fixture:four_lines", "--output", str(target)])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and str(target) in err


def test_rank_takes_no_verify_flag():
    code, out, err = run_cli(["rank", "--input", "fixture:four_lines", "--verify"])
    assert code == 2 and out == ""
    assert "--verify" in err and "Traceback" not in err


def test_compute_over_a_large_conductor_matches_q(tmp_path, capsys, four_lines_doc):
    # four_lines has rational entries only, so over Q(zeta_2999) every inverse is rational
    path = tmp_path / "z2999.json"
    path.write_text(json.dumps({**four_lines_doc, "field": {"kind": "cyclotomic", "m": 2999}}))
    started = time.perf_counter()
    over_z2999 = _exit_and_stderr(capsys, ["compute", "--input", str(path)])
    assert time.perf_counter() - started < 5.0
    over_q = _exit_and_stderr(capsys, ["compute", "--input", fixture_path("four_lines")])
    assert over_z2999 == over_q and over_q[0] == 0


# Runs radonmono as its one child and prints that child's peak RSS in MB.
_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "radonmono", *sys.argv[1:]], check=True, stdout=subprocess.DEVNULL)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(peak / 2**20 if sys.platform == "darwin" else peak / 2**10)
"""


def test_compute_over_a_large_conductor_stays_small(tmp_path, four_lines_doc):
    # the field keeps only d = phi(m) and the nonzero terms of Phi_m, so this
    # reads about 24 MB; a table of z^e for every e < m would take 87-127 MB,
    # and an entry expanded into its phi(m) x phi(m) multiplication matrix
    # hundreds of MB
    path = tmp_path / "z2999.json"
    path.write_text(json.dumps({**four_lines_doc, "field": {"kind": "cyclotomic", "m": 2999}}))
    wrapper = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "compute", "--input", str(path)], capture_output=True, text=True, check=True
    )
    assert float(wrapper.stdout) < 50


def test_long_braid_word_exits_2(tmp_path, capsys, four_lines_doc):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({**four_lines_doc, "braids": ["(b1^2)^100000", *four_lines_doc["braids"][1:]]}))
    message = f"error: {path}: braids[0]: braid word expands to 200000 letters, more than the 100000 allowed\n"
    for command in ("compute", "rank", "check", "group"):
        started = time.perf_counter()
        code, out, err = _exit_and_stderr(capsys, [command, "--input", str(path)])
        assert time.perf_counter() - started < 1.0
        assert (code, out, err) == (2, "", message)
    path.write_text(json.dumps({**four_lines_doc, "relations": ["b1", "(b1^2)^100000"]}))
    assert _exit_and_stderr(capsys, ["rank", "--input", str(path)]) == (2, "", message.replace("braids[0]", "relations[1]"))


def test_exact_group_on_zariski_cprime_stays_small(tmp_path):
    # the exact engine numbers the 240 distinct rows it meets and holds each of
    # the 155,520 elements as its 6 row ids, so this reads about 45 MB; holding
    # every element as an exact matrix passed 761 MB after 5 minutes
    out = tmp_path / "group.json"
    argv = ["group", "--input", "fixture:zariski_cprime", "--exact", "--output", str(out)]
    wrapper = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], capture_output=True, text=True, check=True)
    group = json.loads(out.read_text())["group"]
    assert (group["status"], group["order"], group["derived_series"]) == ("complete", 155_520, [155_520, 51_840, 51_840])
    assert float(wrapper.stdout) < 100


@pytest.mark.parametrize("mode", [["--exact"], []], ids=["exact", "modular"])
def test_group_cap_boundary_in_both_modes(capsys, mode):
    # zariski_c's group has order 648: a cap of 648 completes, one of 647 does not
    def group_doc(cap):
        code, out, err = _exit_and_stderr(capsys, ["group", "--input", "fixture:zariski_c", "--cap", cap, *mode])
        assert (code, err) == (0, "")
        return json.loads(out)["group"]

    complete, exceeded = group_doc("648"), group_doc("647")
    mode_name = "exact" if mode else "modular"
    assert complete["mode"] == exceeded["mode"] == mode_name
    assert complete["status"] == "complete" and complete["order"] == 648
    assert complete["derived_series"] == [648, 216, 54, 27, 3, 1] and complete["solvable"] is True
    assert exceeded["status"] == "cap_exceeded" and exceeded["order"] is None
    assert list(exceeded) == ["cap", "mode", "status", "order", "decomposition"]
    assert exceeded["decomposition"] == complete["decomposition"]
    modular_keys = ["primes", "order", "scalar_exponents"] if not mode else ["order"]
    assert list(complete) == ["cap", "mode", "status", *modular_keys, "derived_series", "solvable", "decomposition"]


def test_successive_calls_share_no_parsed_values(capsys):
    # the parser is built once per process; options of one call must not leak into the next
    assert build_parser() is build_parser()
    code, out, err = _exit_and_stderr(capsys, ["group", "--exact", "--cap", "5", "--input", "fixture:zariski_c"])
    assert (code, err) == (0, "")
    first = json.loads(out)["group"]
    assert (first["mode"], first["cap"], first["status"]) == ("exact", 5, "cap_exceeded")
    code, out, err = _exit_and_stderr(capsys, ["group", "--input", "fixture:zariski_c"])
    assert (code, err) == (0, "")
    second = json.loads(out)["group"]
    assert (second["mode"], second["cap"], second["status"], second["order"]) == ("modular", DEFAULT_CAP, "complete", 648)
