"""Output oracle: decides whether one CLI operation succeeded.

An operation fails when it exits non-zero, raises, or prints an answer whose
mathematical content differs from the expectation.  The content compared is

* compute: `dims` and a SHA-256 digest of `gtilde`;
* group:   `order`, `derived_series`, `scalar_exponents`, `solvable` and
  `decomposition` (only these keys, so new keys in the document are fine);
* check:   the whole (small) document;
* rank:    the printed integer.

Expectations come from `expected.json`, recorded by `record.py` at the
commit that introduced the benchmark.  Inputs without a record get
structural checks only: dim W = dim H - dim E, the dimensions the synthetic
construction fixes, and every gtilde square and invertible.  Invertibility
is decided modulo large primes with arithmetic written here, independently
of radonmono.  The paper's values for the Zariski pair are checked as well.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

GROUP_KEYS = ("order", "derived_series", "scalar_exponents", "solvable", "decomposition")

# The source paper's values for the two Zariski sextics.
PAPER = {
    "zariski_c": {"order": 648, "derived_series": [648, 216, 54, 27, 3, 1], "solvable": True},
    "zariski_cprime": {"order": 155520, "derived_series_head": [155520, 51840], "solvable": False},
}

# Primes p = 1 mod 6 (so zeta_6 reduces) used for the invertibility test.
CHECK_PRIMES = (1000033, 1000099)


@dataclass(frozen=True)
class Verdict:
    ok: bool  # the operation produced an acceptable answer
    wrong: bool  # it printed an answer that contradicts the oracle
    reason: str = ""


OK = Verdict(True, False)


def load_expected(path: str = EXPECTED_PATH) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def gtilde_digest(gtilde) -> str:
    return hashlib.sha256(json.dumps(gtilde, separators=(",", ":")).encode()).hexdigest()


def compute_content(doc: dict) -> dict:
    return {"dims": doc["dims"], "gtilde_sha256": gtilde_digest(doc["gtilde"])}


def group_content(doc: dict) -> dict:
    group = doc["group"]
    return {k: group[k] for k in GROUP_KEYS if k in group}


def content(kind: str, text: str):
    """The compared content of an output, or raise ValueError."""
    if kind == "rank":
        return int(text.strip())
    doc = json.loads(text)
    if kind == "compute":
        return compute_content(doc)
    if kind == "group":
        return group_content(doc)
    return doc


# -- structural checks ----------------------------------------------------------


def _element_mod_p(text: str, p: int, zeta: int) -> int:
    """Reduce an element string such as '-3/2*z + 1' modulo p."""
    total = 0
    for sign, term in _terms(text):
        coeff, power = _term_parts(term)
        total += sign * coeff.numerator * pow(coeff.denominator, -1, p) * pow(zeta, power, p)
    return total % p


def _terms(text: str):
    text = text.strip()
    sign, start, i = 1, 0, 0
    if text.startswith("-"):
        sign, start, i = -1, 1, 1
    while i < len(text):
        if text[i] in "+-" and i > start and text[i - 1] == " ":
            yield sign, text[start:i].strip()
            sign = 1 if text[i] == "+" else -1
            start = i + 1
        i += 1
    yield sign, text[start:].strip()


def _term_parts(term: str) -> tuple[Fraction, int]:
    if "z" not in term:
        return Fraction(term), 0
    head, _, tail = term.partition("z")
    coeff = Fraction(head.rstrip("*")) if head else Fraction(1)
    power = int(tail[1:]) if tail.startswith("^") else 1
    return coeff, power


def _zeta6_mod(p: int) -> int:
    # A root of z^2 - z + 1 modulo p.
    for a in range(2, p):
        if (a * a - a + 1) % p == 0:
            return a
    raise ValueError(f"no primitive sixth root of unity mod {p}")


def _det_nonzero_mod_p(rows: list[list[int]], p: int) -> bool:
    work = [list(r) for r in rows]
    n = len(work)
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col] % p), None)
        if pivot is None:
            return False
        work[col], work[pivot] = work[pivot], work[col]
        inv = pow(work[col][col], -1, p)
        for i in range(col + 1, n):
            f = work[i][col] * inv % p
            if f:
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[col])]
    return True


def invertible(matrix: list[list[str]], field: dict) -> bool:
    """Exact invertibility test: det is nonzero modulo some prime."""
    if field["kind"] == "prime":
        primes = (field["p"],)
    else:
        primes = CHECK_PRIMES
    for p in primes:
        zeta = _zeta6_mod(p) if field["kind"] == "cyclotomic" else 1
        if field["kind"] == "cyclotomic" and field["m"] != 6:
            raise ValueError("structural checks support Q(zeta_6) only")
        rows = [[_element_mod_p(e, p, zeta) for e in row] for row in matrix]
        if _det_nonzero_mod_p(rows, p):
            return True
    return False


def compute_structure(doc: dict, field: dict, n: int | None = None, r: int | None = None) -> str:
    """Empty string when a compute document is structurally sound, else why not."""
    dims = doc["dims"]
    if dims["W"] != dims["H"] - dims["E"]:
        return f"dim W {dims['W']} != dim H {dims['H']} - dim E {dims['E']}"
    if n is not None and (dims["E"], dims["H"]) != (n, n * (r - 1)):
        return f"dims {dims} differ from E = n, H = n(r-1) for fixed-point-free data"
    for idx, mat in enumerate(doc["gtilde"]):
        if len(mat) != dims["W"] or any(len(row) != dims["W"] for row in mat):
            return f"gtilde[{idx}] is not {dims['W']}x{dims['W']}"
        if not invertible(mat, field):
            return f"gtilde[{idx}] is singular"
    return ""


def group_structure(group: dict) -> str:
    order, series = group.get("order"), group.get("derived_series")
    if order is not None and series is not None:
        if series[0] != order:
            return f"derived series {series} does not start at the order {order}"
        if group.get("solvable") is not None and group["solvable"] != (series[-1] == 1):
            return "solvable flag contradicts the derived series"
    return ""


def paper_check(fixture: str, group: dict) -> str:
    want = PAPER.get(fixture)
    if want is None:
        return ""
    if group.get("order") != want["order"] or group.get("solvable") != want["solvable"]:
        return f"{fixture}: order/solvable differ from the paper"
    series = group.get("derived_series") or []
    if "derived_series" in want and series != want["derived_series"]:
        return f"{fixture}: derived series {series} differs from the paper"
    if "derived_series_head" in want:
        head = want["derived_series_head"]
        if series[: len(head)] != head or series[-1] != series[-2]:
            return f"{fixture}: derived series {series} is not {head} with a perfect end"
    return ""


# -- verdicts -------------------------------------------------------------------


def judge(kind: str, rc, output_path: str, expected, structure=None) -> Verdict:
    """Verdict for one operation.

    `expected` is the recorded content, {"exit": code} for an operation that
    was recorded failing, or None.  `structure(text)` returns an error string
    for structural checks when nothing is recorded.
    """
    if rc != 0:
        return Verdict(False, False, f"exit {rc}")
    try:
        with open(output_path, encoding="utf-8") as handle:
            text = handle.read()
        got = content(kind, text)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Verdict(False, True, f"unreadable output: {exc!r}")
    recorded_failure = isinstance(expected, dict) and "exit" in expected
    if expected is not None and not recorded_failure:
        if kind == "group":
            diff = [k for k in expected if got.get(k) != expected[k]]
            if diff:
                return Verdict(False, True, f"group values differ on {diff}")
        elif got != expected:
            return Verdict(False, True, f"{kind} content differs from the record")
    if structure is not None:
        problem = structure(text)
        if problem:
            return Verdict(False, True, problem)
    return OK
