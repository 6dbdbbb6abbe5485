"""Differential tests of the elimination layer against sympy's DomainMatrix.

rref (form, pivots, rank), inverse, singularity and the left kernel (also on
tall, wide and 0-column shapes) are compared on seeded random matrices, a
share of them rank-deficient, over Q, GF(7) and Q(zeta_6); so are the
cocycle spaces H and E of random product-one tuples.  Q(zeta_6) maps to
QQ<sqrt(-3)> with zeta_6 = (1 + sqrt(-3)) / 2.  Matrix products over
Q(zeta_5) and Q(zeta_12) are checked against products in QQ[z] reduced
modulo the cyclotomic polynomial.
"""

import functools
import random
from fractions import Fraction

import pytest

from radonmono.cocycle import compute_E, compute_H
from radonmono.errors import Singular
from radonmono.field import FieldSpec
from radonmono.linalg import Matrix, Subspace, kernel, product_of, rref

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError  # noqa: E402

FIELDS = {
    "Q": FieldSpec.rational(),
    "GF7": FieldSpec.prime(7),
    "Qzeta6": FieldSpec.cyclotomic(6),
}
SEEDS = range(12)


def _sympy_domain(spec):
    if spec.kind == "prime":
        return sympy.GF(spec.p), None
    if spec.kind == "rational":
        return sympy.QQ, None
    dom = sympy.QQ.algebraic_field(sympy.sqrt(-3))
    return dom, dom.from_sympy((1 + sympy.sqrt(-3)) / 2)


def to_sympy(mat: Matrix) -> DomainMatrix:
    dom, zeta = _sympy_domain(mat.spec)
    kind = mat.spec.kind

    def conv(e):
        if kind == "prime":
            return dom(e.coeffs[0])
        if kind == "rational":
            return dom(e.coeffs[0], e.den)
        c0, c1 = (sympy.QQ(c, e.den) for c in e.coeffs)
        return dom.convert(c0) + dom.convert(c1) * zeta

    return DomainMatrix([[conv(e) for e in row] for row in mat.entries], (mat.rows, mat.cols), dom)


def random_entry(rng, spec):
    if spec.kind == "prime":
        return spec.from_int(rng.randrange(spec.p))
    return spec.element([rng.randint(-3, 3) for _ in range(spec.degree)])


def random_matrix(rng, spec, rows, cols, rank=None):
    """A random rows x cols matrix; with `rank`, a product through k^rank."""

    def dense(r, c):
        return Matrix.from_rows(spec, [[random_entry(rng, spec) for _ in range(c)] for _ in range(r)], cols=c)

    if rank is None:
        return dense(rows, cols)
    if rank == 0:
        return Matrix.zero(spec, rows, cols)
    return dense(rows, rank) * dense(rank, cols)


def _case(seed, spec, square=False):
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rows if square else rng.randint(1, 6)
    rank = rng.randint(0, min(rows, cols) - 1) if seed % 2 else None
    return random_matrix(rng, spec, rows, cols, rank)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_rref_against_sympy(field, seed):
    a = _case(seed, FIELDS[field])
    red, pivots, rank = rref(a)
    ref, ref_pivots = to_sympy(a).rref()
    assert to_sympy(red) == ref
    assert pivots == tuple(ref_pivots)
    assert rank == len(ref_pivots) == to_sympy(a).rank()


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_against_sympy(field, seed):
    a = _case(seed, FIELDS[field], square=True)
    try:
        expected = to_sympy(a).inv()
    except DMNonInvertibleMatrixError:
        with pytest.raises(Singular):
            a.inverse()
    else:
        assert to_sympy(a.inverse()) == expected


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_left_kernel_against_sympy(field, seed):
    a = _case(seed, FIELDS[field])
    ours = kernel(a)
    # the left kernel of a is the nullspace of its transpose
    transpose = to_sympy(a).transpose()
    null = transpose.nullspace()
    assert ours.dim == null.shape[0] == a.rows - transpose.rank()
    if ours.dim:
        assert to_sympy(ours.basis) == null.rref()[0]


# Tall (rows >> cols: the suffix stack of compute_H), wide, and 0-column shapes.
SHAPES = [(12, 2), (20, 3), (9, 1), (2, 12), (3, 20), (4, 0), (1, 0)]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("deficient", [False, True])
def test_left_kernel_shapes_against_sympy(field, shape, deficient):
    rows, cols = shape
    rng = random.Random(f"{field}:{rows}x{cols}:{deficient}")
    rank = min(rows, cols) - 1 if deficient and min(rows, cols) > 1 else None
    a = random_matrix(rng, FIELDS[field], rows, cols, rank)
    ours = kernel(a)
    null = to_sympy(a).transpose().nullspace()
    assert ours.dim == null.shape[0]
    if ours.dim:
        assert to_sympy(ours.basis) == null.rref()[0]


def random_product_one_tuple(rng, spec, n, r):
    """r random invertible n x n matrices whose ordered product is 1."""
    mats = []
    while len(mats) < r - 1:
        m = random_matrix(rng, spec, n, n)
        if to_sympy(m).rank() == n:
            mats.append(m)
    return mats + [product_of(mats).inverse()]


def fixed_vector_tuple(rng, spec, n, r):
    """A product-one tuple whose first r - 1 entries are conjugates of
    diagonal matrices with some eigenvalues 1 (identities and
    pseudo-reflections among them), so that each has fixed vectors."""
    mats = []
    while len(mats) < r - 1:
        s = random_matrix(rng, spec, n, n)
        diag = [spec.one() if rng.random() < 0.6 else random_entry(rng, spec) for _ in range(n)]
        if to_sympy(s).rank() == n and not any(d.is_zero() for d in diag):
            mats.append(s.inverse() * Matrix.diagonal(spec, diag) * s)
    return mats + [product_of(mats).inverse()]


def _row_space_basis(dm):
    """The nonzero rows of the RREF of dm, or None for the zero space."""
    red, pivots = dm.rref()
    if not pivots:
        return None
    return DomainMatrix(red.to_list()[: len(pivots)], (len(pivots), dm.shape[1]), dm.domain)


def _block_rows(blocks, dom):
    """The rows of a block matrix given as a grid of square DomainMatrix blocks (None is zero)."""
    out = []
    for brow in blocks:
        height = next(b.shape[0] for b in brow if b is not None)
        for k in range(height):
            row = []
            for b in brow:
                row.extend(b.to_list()[k] if b is not None else [dom.zero] * height)
            out.append(row)
    return out


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", range(6))
def test_cocycle_spaces_against_sympy(field, seed):
    # Each seed checks a generic tuple and one whose entries have fixed vectors.
    # H = {(u_i (g_i - 1))_i : sum_i u_i (g_i - 1) g_{i+1}...g_r = 0}: the image
    # of the left kernel of the column of (g_i - 1) g_{i+1}...g_r under
    # diag(g_i - 1).  E is the row space of [g_1 - 1 | ... | g_r - 1].  Both
    # are compared as canonical RREF bases, so dim H and dim E are too.
    spec = FIELDS[field]
    rng = random.Random(f"cocycle:{field}:{seed}")
    n, r = rng.randint(1, 3), rng.randint(3, 5)
    for tup in (random_product_one_tuple(rng, spec, n, r), fixed_vector_tuple(rng, spec, n, r)):
        _check_cocycle_spaces(tup)


def _check_cocycle_spaces(tup):
    n, r = tup[0].rows, len(tup)
    g = [to_sympy(m) for m in tup]
    dom = g[0].domain
    ident = DomainMatrix.eye(n, dom).to_dense()
    assert functools.reduce(lambda x, y: x * y, g) == ident
    moves = [gi - ident for gi in g]
    suffix = [ident] * r
    for i in range(r - 2, -1, -1):
        suffix[i] = g[i + 1] * suffix[i + 1]
    column = DomainMatrix(_block_rows([[mv * sf] for mv, sf in zip(moves, suffix)], dom), (n * r, n), dom)
    diag = [[moves[i] if j == i else None for j in range(r)] for i in range(r)]
    diag = DomainMatrix(_block_rows(diag, dom), (n * r, n * r), dom)
    h_ref = _row_space_basis(column.transpose().nullspace() * diag)
    e_ref = _row_space_basis(moves[0].hstack(*moves[1:]))
    for ours, ref in ((compute_H(tup), h_ref), (compute_E(tup), e_ref)):
        assert ours.dim == (ref.shape[0] if ref is not None else 0)
        if ours.dim:
            assert to_sympy(ours.basis) == ref


def test_singular_examples():
    for spec in FIELDS.values():
        with pytest.raises(Singular):
            Matrix.zero(spec, 2, 2).inverse()
        dependent = Matrix.from_ints(spec, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
        with pytest.raises(Singular):
            dependent.inverse()


@pytest.mark.parametrize("m", (5, 12))
def test_cyclotomic_product_against_sympy(m):
    # Entries are polynomials in z over QQ: sympy multiplies the matrices in
    # QQ[z] and reduces each entry modulo the m-th cyclotomic polynomial.
    spec = FieldSpec.cyclotomic(m)
    rng = random.Random(m)
    ring, z = sympy.ring("z", sympy.QQ)
    phi = ring.from_expr(sympy.cyclotomic_poly(m, sympy.Symbol("z")))

    def entry():
        if rng.random() < 0.25:
            return spec.zero()
        return spec.element([Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(spec.degree)])

    def as_poly(e):
        return sum((sympy.QQ(c, e.den) * z**k for k, c in enumerate(e.coeffs)), ring.zero)

    a = Matrix.from_rows(spec, [[entry() for _ in range(4)] for _ in range(3)])
    b = Matrix.from_rows(spec, [[entry() for _ in range(2)] for _ in range(4)])
    want = DomainMatrix([[as_poly(e) for e in row] for row in a.entries], (3, 4), ring.to_domain()) * DomainMatrix(
        [[as_poly(e) for e in row] for row in b.entries], (4, 2), ring.to_domain()
    )
    got = a * b
    for i in range(3):
        for j in range(2):
            assert as_poly(got.entries[i][j]) == want[i, j].element.rem(phi)


hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def rows_with_shuffle(draw):
    spec = draw(st.sampled_from(list(FIELDS.values())))
    cols = draw(st.integers(1, 5))
    coeff = st.integers(-3, 3)
    entry = st.lists(coeff, min_size=spec.degree, max_size=spec.degree).map(spec.element)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=6))
    order = draw(st.permutations(range(len(rows))))
    scalars = draw(st.lists(entry.filter(lambda e: not e.is_zero()), min_size=len(rows), max_size=len(rows)))
    return spec, cols, rows, order, scalars


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(rows_with_shuffle())
def test_subspace_invariant_under_row_permutation_and_scaling(case):
    spec, cols, rows, order, scalars = case
    base = Subspace.from_rows(spec, cols, rows)
    moved = [[s * e for e in rows[i]] for i, s in zip(order, scalars)]
    assert Subspace.from_rows(spec, cols, moved) == base
    assert base.pivots == tuple(sorted(base.pivots))
    assert all(row[p].is_one() for row, p in zip(base.basis.entries, base.pivots))
