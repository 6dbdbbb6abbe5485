"""End-to-end pipeline: from fundamental data to the output monodromy tuple.

The fundamental data of a rank-n local system on the complement of a degree-r
plane curve consist of its monodromy tuple (g_1, ..., g_r) with product 1 and
braid words (omega_1, ..., omega_s) recording how the punctures move around
the exceptional lines of a generic pencil.  The induced local system on the
dual-plane complement has monodromy tuple (gtilde_1, ..., gtilde_s) acting on
the quotient W = H/E; this module computes it, validates the inputs, and
compares tuples up to simultaneous conjugation.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Sequence

from .braid import (
    BraidExpr,
    BraidWord,
    act_on_tuple,
    check_length,
    expand,
    free_reduce,
    parse_braid,
    word_from_letters,
)
from .cocycle import _conditions, phibar, trafodat
from .errors import (
    InputError,
    RadonError,
    ShapeMismatch,
    Singular,
)
from .field import FieldSpec, format_element, parse_element
from .linalg import Matrix, intertwiner_space, matrix_from_flat, product_of, square_tuple_shape

__all__ = [
    "FundamentalData",
    "ValidationReport",
    "RadonResult",
    "validate",
    "radon_rank",
    "radon_transform",
    "check_relations",
    "conjugacy_match",
    "load_fundamental_data",
    "parse_fundamental_data",
    "result_to_dict",
    "dump_json",
]


@dataclass
class FundamentalData:
    """Field, monodromy tuple and braid monodromy words of a local system."""

    spec: FieldSpec
    n: int
    r: int
    g: tuple[Matrix, ...]
    omegas: tuple[BraidExpr, ...]
    relations: tuple[BraidExpr, ...] = ()

    @property
    def s(self) -> int:
        return len(self.omegas)

    def words(self) -> list[BraidWord]:
        return [expand(w, self.r) for w in self.omegas]


@dataclass
class ValidationReport:
    product_ok: bool
    vankampen_ok: bool
    strand_ok: bool
    warnings: list[str] = field(default_factory=list)


@dataclass
class RadonResult:
    dim_e: int
    dim_h: int
    dim_w: int
    gtilde: tuple[Matrix, ...]
    rank_formula: int
    rank_matches: bool
    braid_product_trivial: bool
    gtilde_product_identity: bool | None
    validation: ValidationReport


def _check_shapes(fd: FundamentalData):
    if len(fd.g) != fd.r:
        raise ShapeMismatch(f"expected {fd.r} matrices, got {len(fd.g)}")
    if square_tuple_shape(fd.g) != (fd.spec, fd.n):
        raise ShapeMismatch(f"tuple entries must be {fd.n}x{fd.n} over {fd.spec.label()}")


def _note_moved(report: ValidationReport, g: Sequence[Matrix], targets: Sequence[tuple[Matrix, ...]]):
    """Warn, in word order, about each word whose target tuple is not g."""
    for idx, target in enumerate(targets):
        if target != tuple(g):
            report.vankampen_ok = False
            report.warnings.append(f"braid word {idx + 1} does not fix the monodromy tuple")


def validate(fd: FundamentalData, act: bool = True) -> ValidationReport:
    """Check the product rule and the stability relations of the braid words.

    Shape and strand violations raise; a failing stability relation (the
    tuple not being fixed by some word) only warns, since arbitrary matrix
    tuples need not satisfy the relations that geometric data always do.
    Each distinct word acts once, and warns at every position it holds;
    with `act` false no word acts, and `vankampen_ok` is left True.
    """
    _check_shapes(fd)
    words = fd.words()  # raises StrandOutOfRange on bad letters
    product_ok = product_of(fd.g).is_identity()
    warnings = [] if product_ok else ["ordered product of the monodromy tuple is not the identity"]
    report = ValidationReport(product_ok, True, True, warnings)
    if product_ok and act:
        targets = {w.letters: act_on_tuple(fd.g, w) for w in {w.letters: w for w in words}.values()}
        _note_moved(report, fd.g, [targets[w.letters] for w in words])
    return report


def radon_rank(fd: FundamentalData) -> int:
    """The expected output rank n(r-2) - sum_i dim(fixed space of g_i).

    It is read off the condition matrix as n(r-1) - m, as in
    `radon_transform`; `_conditions` checks the product rule.
    """
    _check_shapes(fd)
    return fd.n * (fd.r - 1) - _conditions(fd.g).cols


def radon_transform(fd: FundamentalData, verify: bool = False) -> RadonResult:
    """Compute the output monodromy tuple in the deterministic flag basis.

    `trafodat` checks the product rule.  Each distinct word moves the tuple
    once, for all its positions: the targets that `phibar` returns decide
    `vankampen_ok` and its warnings, per position, as `validate` would.  The
    rank formula n(r-2) - sum_i dim Fix(g_i) is n(r-1) - m, with m the column
    count of the condition matrix.
    """
    _check_shapes(fd)
    words = fd.words()  # raises StrandOutOfRange on bad letters
    ts = trafodat(fd.g)  # raises ProductNotIdentity
    report = ValidationReport(True, True, True)
    moves = {w.letters: phibar(ts, w, verify=verify) for w in {w.letters: w for w in words}.values()}
    gtilde = tuple(moves[w.letters][0] for w in words)
    _note_moved(report, fd.g, [moves[w.letters][1] for w in words])

    rank = ts.n * (ts.r - 1) - ts.conditions.cols
    rank_matches = rank == ts.dim_w
    if not rank_matches:
        report.warnings.append(
            f"rank formula gives {rank} but dim W = {ts.dim_w}"
            " (the formula assumes an irreducible non-constant system)"
        )
    concat: list[int] = []
    for w in words:
        concat.extend(w.letters)
    trivial = not free_reduce(BraidWord(fd.r, tuple(concat))).letters if words else True
    product_identity: bool | None = None
    if words and ts.dim_w > 0 and trivial:
        product_identity = product_of(gtilde).is_identity()
        if not product_identity:
            raise RadonError(
                "braid words multiply to the trivial braid but the output tuple "
                "product is not the identity"
            )
    return RadonResult(
        dim_e=ts.dim_e,
        dim_h=ts.dim_h,
        dim_w=ts.dim_w,
        gtilde=gtilde,
        rank_formula=rank,
        rank_matches=rank_matches,
        braid_product_trivial=trivial,
        gtilde_product_identity=product_identity,
        validation=report,
    )


def check_relations(mats: Sequence[Matrix], braids: Sequence[BraidExpr]) -> bool:
    """True when every braid in the list fixes the tuple under the action."""
    square_tuple_shape(mats)
    strands = len(mats)
    for braid in braids:
        word = expand(braid, strands)
        if act_on_tuple(mats, word) != tuple(mats):
            return False
    return True


def conjugacy_match(computed: Sequence[Matrix], target: Sequence[Matrix]) -> Matrix | None:
    """An invertible T with T^-1 * computed_i * T = target_i, or None.

    Solves the intertwiner space {T : computed_i T = T target_i} exactly and
    tests its basis elements, then 40 seeded points that combine every
    basis element with coefficients from 2d + 1 values.  det T is a
    polynomial of degree d on the space, so when an invertible point exists
    a draw misses it with probability at most d / (2d + 1) < 1/2
    (Schwartz-Zippel), provided the field has more than 2d elements.  Every
    candidate is verified exactly, so a returned T is always a conjugator.
    """
    space = intertwiner_space(list(computed), list(target))
    spec, d = space.spec, computed[0].rows
    basis = space.basis.entries
    rng = random.Random(0)
    values = [spec.from_int(c) for c in range(2 * d + 1)]
    draws = ([rng.choice(values) for _ in basis] for _ in range(40 if space.dim > 1 else 0))
    points = (tuple(sum((c * row[k] for c, row in zip(cs, basis)), spec.zero()) for k in range(d * d)) for cs in draws)
    for flat in itertools.chain(basis, points):
        t = matrix_from_flat(spec, flat, d)
        try:
            t_inv = t.inverse()
        except Singular:
            continue
        if all(t_inv * c * t == tgt for c, tgt in zip(computed, target)):
            return t
    return None


# -- JSON interface -------------------------------------------------------------


# The work per Q(zeta_m) entry and the conjugate-product inverse both grow with phi(m); building
# Phi_m as a Moebius product of binomials takes at most 9 ms below this bound (m = 2730).
MAX_CONDUCTOR = 3000


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_fundamental_data(doc: dict, source: str = "<input>") -> FundamentalData:
    """Parse and validate the JSON input document."""
    if not isinstance(doc, dict):
        raise InputError(f"{source}: top level must be an object")

    def need(key, kind, where="input"):
        if key not in doc:
            raise InputError(f"{source}: missing key {key!r} in {where}")
        value = doc[key]
        if not (_is_int(value) if kind is int else isinstance(value, kind)):
            raise InputError(f"{source}: key {key!r} has the wrong type")
        return value

    fdoc = need("field", dict)
    kind = fdoc.get("kind")
    if kind not in ("rational", "prime", "cyclotomic"):
        raise InputError(f"{source}: field.kind must be rational, prime or cyclotomic")
    key = {"prime": "p", "cyclotomic": "m"}.get(kind)
    if key and not _is_int(fdoc.get(key)):
        raise InputError(f"{source}: field.{key} must be an integer")
    if key == "m" and fdoc["m"] > MAX_CONDUCTOR:
        raise InputError(f"{source}: field.m must be at most {MAX_CONDUCTOR}, got {fdoc['m']}")
    try:
        spec = getattr(FieldSpec, kind)(*([fdoc[key]] if key else []))  # rational(), prime(p) or cyclotomic(m)
    except InputError as exc:  # a modulus that is not prime, a conductor below 1
        raise InputError(f"{source}: {exc}") from None

    n = need("n", int)
    r = need("r", int)
    if n < 1 or r < 1:
        raise InputError(f"{source}: n and r must be positive")
    raw_mats = need("matrices", list)
    if len(raw_mats) != r:
        raise InputError(f"{source}: expected {r} matrices, found {len(raw_mats)}")
    mats = []
    for mi, grid in enumerate(raw_mats):
        if not isinstance(grid, list) or len(grid) != n:
            raise InputError(f"{source}: matrices[{mi}] must be an {n}x{n} array")
        rows = []
        for ri, row in enumerate(grid):
            if not isinstance(row, list) or len(row) != n:
                raise InputError(f"{source}: matrices[{mi}][{ri}] must have {n} entries")
            out_row = []
            for ci, cell in enumerate(row):
                if not isinstance(cell, str):
                    raise InputError(
                        f"{source}: matrices[{mi}][{ri}][{ci}] must be an element string"
                    )
                try:
                    out_row.append(parse_element(cell, spec))
                except InputError as exc:
                    raise InputError(
                        f"{source}: matrices[{mi}][{ri}][{ci}]: {exc}"
                    ) from None
            rows.append(out_row)
        mats.append(Matrix.from_rows(spec, rows))

    def parse_braid_list(key, strands):
        items = doc.get(key, [])
        if not isinstance(items, list):
            raise InputError(f"{source}: key {key!r} must be an array")
        out = []
        for bi, item in enumerate(items):
            if not (isinstance(item, str) or isinstance(item, list) and all(_is_int(x) for x in item)):
                raise InputError(
                    f"{source}: {key}[{bi}] must be a braid string or an integer array"
                )
            try:
                expr = parse_braid(item, strands) if isinstance(item, str) else word_from_letters(item, strands)
                check_length(expr)
            except InputError as exc:
                raise InputError(f"{source}: {key}[{bi}]: {exc}") from None
            out.append(expr)
        return tuple(out)

    if "braids" not in doc:
        raise InputError(f"{source}: missing key 'braids'")
    omegas = parse_braid_list("braids", r)
    relations = parse_braid_list("relations", len(omegas))
    return FundamentalData(spec=spec, n=n, r=r, g=tuple(mats), omegas=omegas, relations=relations)


def load_fundamental_data(path) -> FundamentalData:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except ValueError as exc:  # a JSON number that int() refuses, such as one over 4300 digits
        raise InputError(f"{path}: {exc}") from None
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: {exc.strerror}") from None
    return parse_fundamental_data(doc, source=str(path))


def matrix_to_strings(mat: Matrix) -> list[list[str]]:
    return [[format_element(e) for e in row] for row in mat.entries]


def result_to_dict(result: RadonResult) -> dict:
    return {
        "dims": {"E": result.dim_e, "H": result.dim_h, "W": result.dim_w},
        "gtilde": [matrix_to_strings(m) for m in result.gtilde],
        "report": {
            "product_ok": result.validation.product_ok,
            "vankampen_ok": result.validation.vankampen_ok,
            "strand_ok": result.validation.strand_ok,
            "rank_formula": result.rank_formula,
            "rank_matches_dim_w": result.rank_matches,
            "braid_product_trivial": result.braid_product_trivial,
            "gtilde_product_identity": result.gtilde_product_identity,
            "warnings": list(result.validation.warnings),
        },
    }


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
