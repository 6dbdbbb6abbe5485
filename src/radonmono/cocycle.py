"""Cocycle spaces of a monodromy tuple and the braid-induced maps on them.

For an r-tuple g of invertible n x n matrices with ordered product 1, the
cocycle space is

    H = {(v_1, ..., v_r) : v_i in Im(g_i - 1),
         v_1 g_2...g_r + v_2 g_3...g_r + ... + v_r = 0}  in V^r,

the coboundary space is E = {(v(g_1 - 1), ..., v(g_r - 1)) : v in V}, and
the quotient W = H/E models the parabolic cohomology of the punctured line
with coefficients in the rank-n local system defined by g.  A braid letter i
deforms V^r through the blocks v_i and v_{i+1} only; the braid action moves
row vectors by one block product per letter while the tuple, with the
inverses of its entries, advances, all as integer numerators that `trafodat`
forms once.  `phibar` moves only the dim W rows of H that stand for W.

Both conditions on H are linear forms: v_i lies in Im(g_i - 1) exactly when
it kills the fixed column vectors of g_i.  So H is the left kernel of one
nr x m matrix M, m = n + sum_i dim Fix(g_i), and every elimination here has
at most m rows.  The W coordinates are those of the greedy flag basis of
V^r: the echelon basis of E, then each echelon row of H, then each unit
vector, each kept when it is independent of the rows before it.  Two such
eliminations choose the kept rows, and the coordinates of moved rows are
read from one product with M and reductions against E, so the nr x nr flag
basis is neither stored nor inverted.  That product takes one
`FieldSpec.dot` per entry, so each entry is normalised once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .braid import BraidWord, _Numerators, _word_letters
from .braid import act_on_tuple  # noqa: F401  (perfbench's tracer looks the action up here)
from .errors import ProductNotIdentity, ShapeMismatch
from .field import FieldElement
from .linalg import Matrix, Subspace, _Echelon, _reduce, hstack, image, kernel, minus_identity, product_of
from .linalg import square_tuple_shape
from .linalg import intersect  # noqa: F401  (perfbench's tracer looks the intersection up here)

__all__ = [
    "TupleSpaces",
    "compute_H",
    "compute_E",
    "trafodat",
    "phibar",
]


@dataclass
class TupleSpaces:
    """A tuple g with its cocycle data and the greedy flag of V^r.

    The flag basis is, in order, the echelon basis of E, the rows `middle`
    of the echelon basis of H that extend it to H, and the unit vectors e_i,
    i in `complement`, that extend H to V^r; it defines the W coordinates
    but is not stored.  `conditions` is the nr x m matrix M with H =
    kernel(M).  `w_coordinates` reads the coordinates of moved rows on the
    middle rows from one product with M and two small reductions per row.
    """

    g: tuple[Matrix, ...]
    H: Subspace
    E: Subspace
    conditions: Matrix
    middle: tuple[int, ...]
    complement: tuple[int, ...]
    modulo_e: _Echelon = field(repr=False)  # E in H-coordinates, columns reversed
    coset: _Echelon = field(repr=False)  # [M_C | I], M_C the rows `complement` of M
    start: _Numerators = field(repr=False)  # g and its inverses as integer numerators
    moving: tuple[list[list[int]], int] = field(repr=False)  # the rows `middle` of H, likewise

    @property
    def n(self) -> int:
        return self.g[0].rows

    @property
    def r(self) -> int:
        return len(self.g)

    @property
    def dim_e(self) -> int:
        return self.E.dim

    @property
    def dim_h(self) -> int:
        return self.H.dim

    @property
    def dim_w(self) -> int:
        return self.H.dim - self.E.dim

    def w_coordinates(self, rows: Sequence[Sequence[FieldElement]]) -> Matrix:
        """The middle dim_w entries of v T^-1 for each row v, T the flag basis.

        All rows are multiplied by M in one `Matrix` product.  With v = e +
        sum_J b_j h_j + sum_C a_k e_k, vM = a M_C: reducing [vM | 0] against
        the echelon of [M_C | I] leaves [0 | -a].  Then v - sum_C a_k e_k lies
        in H; reduced at the pivots of H against E, it keeps only b, at the
        positions J.  Returns a len(rows) x dim_w matrix.
        """
        spec, m, last = self.conditions.spec, self.conditions.cols, self.dim_h - 1
        pad = (spec.zero(),) * len(self.complement)
        images = Matrix.from_rows(spec, rows, cols=self.conditions.rows) * self.conditions
        out = []
        for v, vm in zip(rows, images.entries):
            tail = _reduce(self.coset.rows, self.coset.pivots, (*vm, *pad))[m:]
            h = list(v)
            for i, a in zip(self.complement, tail):
                h[i] = h[i] + a
            x = _reduce(self.modulo_e.rows, self.modulo_e.pivots, [h[p] for p in reversed(self.H.pivots)])
            out.append([x[last - j] for j in self.middle])
        return Matrix.from_rows(spec, out, cols=self.dim_w)


def _check_product(product: Matrix) -> None:
    if not product.is_identity():
        raise ProductNotIdentity("ordered product of the tuple is not the identity")


def _conditions(g: Sequence[Matrix]) -> Matrix:
    """The nr x m matrix M whose left kernel is H, m = n + sum_i f_i.

    Block row i holds, in its own f_i columns, a basis of the fixed column
    vectors of g_i (v_i lies in Im(g_i - 1) exactly when it kills them), and
    in the last n columns the suffix product g_{i+1}...g_r.  The tuple's
    product is checked as g_1 times the first suffix product.
    """
    n, r, spec = g[0].rows, len(g), g[0].spec
    suffix = [Matrix.identity(spec, n)] * r
    for i in range(r - 2, -1, -1):
        suffix[i] = g[i + 1] * suffix[i + 1]
    _check_product(g[0] * suffix[0])
    fixed = [kernel(Matrix(spec, tuple(zip(*minus_identity(gi).entries)), cols=n)).basis.entries for gi in g]
    width = sum(len(f) for f in fixed)
    zero = spec.zero()
    rows, offset = [], 0
    for f, s in zip(fixed, suffix):
        for k in range(n):
            row = [zero] * width
            row[offset : offset + len(f)] = [u[k] for u in f]
            rows.append((*row, *s.entries[k]))
        offset += len(f)
    return Matrix(spec, tuple(rows), cols=width + n)


def _coboundaries(g: Sequence[Matrix]) -> Subspace:
    return image(hstack([minus_identity(gi) for gi in g]))


def compute_H(g: Sequence[Matrix]) -> Subspace:
    """The cocycle space H of the tuple, canonical in V^r."""
    square_tuple_shape(g)
    return kernel(_conditions(g))


def compute_E(g: Sequence[Matrix]) -> Subspace:
    """The coboundary space E: the row space of [g_1 - 1 | ... | g_r - 1]."""
    square_tuple_shape(g)
    _check_product(product_of(g))
    return _coboundaries(g)


def extend_basis(e: Subspace, h: Subspace, conditions: Matrix) -> tuple[tuple[int, ...], tuple[int, ...], _Echelon]:
    """The rows that the greedy flag through E, H = kernel(conditions) and
    V^r keeps.

    The flag is the echelon basis of E, then each echelon row of H not in
    the span of the rows before it, then each unit vector e_i likewise.  In
    H-coordinates (the entries at the pivots of H) the H rows are unit
    vectors, and the accepted ones are those off the pivots of E eliminated
    with its columns reversed (a greedy unit extension is the complement of
    the right-to-left column basis).  e_i modulo H maps to row i of the
    conditions, so the accepted e_i are the greedy independent rows.
    Returns the accepted H rows J, the accepted indices C and the reversed
    echelon of E; the flag itself is never built.
    """
    modulo_e = _Echelon(tuple(row[p] for p in reversed(h.pivots)) for row in e.basis.entries)
    rejected = {h.dim - 1 - p for p in modulo_e.pivots}
    middle = tuple(j for j in range(h.dim) if j not in rejected)
    independent = _Echelon()
    complement = tuple(i for i, row in enumerate(conditions.entries) if independent.add(row))
    return middle, complement, modulo_e


def trafodat(g: Sequence[Matrix]) -> TupleSpaces:
    """Cocycle data of g together with the rows its greedy flag keeps."""
    square_tuple_shape(g)
    conditions = _conditions(g)
    e, h = _coboundaries(g), kernel(conditions)
    if not (e.basis * conditions).is_zero():
        raise ShapeMismatch("coboundary space escapes the cocycle space")
    middle, complement, modulo_e = extend_basis(e, h, conditions)
    one, zero, c = e.spec.one(), e.spec.zero(), len(complement)
    coset = _Echelon(
        (*conditions.entries[i], *(one if j == k else zero for j in range(c))) for k, i in enumerate(complement)
    )
    start = _Numerators(g)
    return TupleSpaces(
        g=tuple(g),
        H=h,
        E=e,
        conditions=conditions,
        middle=middle,
        complement=complement,
        modulo_e=modulo_e,
        coset=coset,
        start=start,
        moving=start.slots([h.basis.entries[j] for j in middle]),
    )


def phibar(
    ts: TupleSpaces, word: BraidWord | Sequence[int], verify: bool = False
) -> tuple[Matrix, tuple[Matrix, ...]]:
    """The map induced on the quotient W = H/E by a braid word, and the tuple
    the word moves ts.g to.

    The dim_w rows `ts.middle` of the echelon basis of H, held by ts as
    integer numerators, are moved through the word, and the moved rows are
    read in the source flag basis by `TupleSpaces.w_coordinates`; for words
    that move the tuple the result is in the source flag coordinates.  The
    target is compared with ts.g as numerators, and only the entries that
    moved are converted: an entry the word fixes is ts.g's own.  With
    verify=True the basis rows of H and E are moved along and the stability
    of the cocycle and coboundary spaces is checked exactly.
    """
    start, letters, h, dim_w = ts.start, _word_letters(word, ts.r), ts.H.basis.entries, ts.dim_w
    slots, den = start.slots([*(h[j] for j in ts.middle), *h, *ts.E.basis.entries]) if verify else ts.moving
    moving = [list(slots), den] if slots else None
    reached = start.move(letters, moving)
    target = tuple(g if a == a0 else start.matrix(a) for g, a0, a in zip(ts.g, start.gs, reached))
    moved = start.rows(*moving) if moving else []
    if verify:
        _verify_stability(ts, moved[dim_w:], target)
    return ts.w_coordinates(moved[:dim_w]), target


def _verify_stability(ts: TupleSpaces, moved: list[list[FieldElement]], target: Sequence[Matrix]):
    same = tuple(target) == ts.g
    h_target, e_target = (ts.H, ts.E) if same else (compute_H(target), compute_E(target))
    dim_h = ts.dim_h
    for row in moved[:dim_h]:
        if not h_target.contains_vector(row):
            raise ShapeMismatch("cocycle space is not stable under the word")
    for row in moved[dim_h:]:
        if not e_target.contains_vector(row):
            raise ShapeMismatch("coboundary space is not stable under the word")
