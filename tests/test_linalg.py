import itertools
import random
from fractions import Fraction

import pytest

from radonmono.cocycle import compute_E, compute_H, trafodat
from radonmono.errors import (
    AmbientMismatch,
    FieldMismatch,
    ShapeMismatch,
    Singular,
)
from radonmono.field import FieldSpec
from radonmono.group import MatrixGroupGen
from radonmono.linalg import (
    Matrix,
    Subspace,
    hstack,
    image,
    intersect,
    intertwiner_space,
    kernel,
    matrix_from_flat,
    rref,
    square_tuple_shape,
    subspace_sum,
)
from radonmono.radon import check_relations

Q = FieldSpec.rational()


def mat(grid, spec=Q):
    return Matrix.from_ints(spec, grid)


def test_rref_examples():
    ident = Matrix.identity(Q, 3)
    red, pivots, rank = rref(ident)
    assert red == ident and pivots == (0, 1, 2) and rank == 3

    zero = Matrix.zero(Q, 2, 3)
    red, pivots, rank = rref(zero)
    assert red == zero and pivots == () and rank == 0

    a = mat([[2, 4], [1, 2]])
    red, pivots, rank = rref(a)
    assert red == mat([[1, 2], [0, 0]]) and rank == 1


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(5150)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = mat([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        red, _, _ = rref(a)
        again, _, _ = rref(red)
        assert red == again


def test_image_examples(q_zeta6):
    minus_one = mat([[-1]])
    assert image(minus_one - Matrix.identity(Q, 1)).dim == 1

    ident = Matrix.identity(Q, 3)
    assert image(ident - ident).dim == 0

    z = q_zeta6.gen()
    diag = Matrix.diagonal(q_zeta6, [z, q_zeta6.one()])
    shifted = diag - Matrix.identity(q_zeta6, 2)
    im = image(shifted)
    assert im.dim == 1
    assert im.basis == Matrix.from_rows(q_zeta6, [[q_zeta6.one(), q_zeta6.zero()]])


def test_kernel_examples():
    assert kernel(Matrix.identity(Q, 3)).dim == 0
    assert kernel(Matrix.zero(Q, 4, 4)).dim == 4
    # single summation condition -v1 + v2 - v3 + v4 = 0
    column = mat([[-1], [1], [-1], [1]])
    assert kernel(column).dim == 3


def test_kernel_is_annihilator():
    rng = random.Random(77)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = mat([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        k = kernel(a)
        assert (k.basis * a).is_zero()
        _, _, rank = rref(a)
        assert k.dim == rows - rank


def test_intersect_examples():
    u = Subspace.from_rows(Q, 2, [[Q.one(), Q.zero()], [Q.zero(), Q.one()]])
    w = Subspace.from_rows(Q, 2, [[Q.one(), Q.one()]])
    assert intersect(u, u) == u
    assert intersect(u, Subspace.zero(Q, 2)).dim == 0
    assert intersect(u, w) == w
    with pytest.raises(AmbientMismatch):
        intersect(u, Subspace.zero(Q, 3))


def test_dimension_formula_on_random_subspaces():
    rng = random.Random(4242)
    gf = FieldSpec.prime(5)
    for _ in range(25):
        n = rng.randint(1, 5)
        du, dw = rng.randint(0, n), rng.randint(0, n)
        u = Subspace.from_rows(
            gf, n, [[gf.from_int(rng.randrange(5)) for _ in range(n)] for _ in range(du)]
        )
        w = Subspace.from_rows(
            gf, n, [[gf.from_int(rng.randrange(5)) for _ in range(n)] for _ in range(dw)]
        )
        assert u.dim + w.dim == subspace_sum(u, w).dim + intersect(u, w).dim


def test_invert_golden():
    a = mat([[0, -1], [1, 2]])
    assert a.inverse() == mat([[2, 1], [-1, 0]])
    assert a.inverse() * a == Matrix.identity(Q, 2)
    with pytest.raises(Singular):
        mat([[1, 2], [2, 4]]).inverse()


def test_invert_times_self_on_random():
    rng = random.Random(2718)
    gf = FieldSpec.prime(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = Matrix.from_ints(gf, [[rng.randrange(11) for _ in range(n)] for _ in range(n)])
        try:
            inv = a.inverse()
        except Singular:
            continue
        assert inv * a == Matrix.identity(gf, n)
        assert a * inv == Matrix.identity(gf, n)


def test_matrix_power():
    a = mat([[0, -1], [1, 2]])
    assert a ** 2 == mat([[-1, -2], [2, 3]])
    assert a ** 0 == Matrix.identity(Q, 2)
    assert a ** -1 == a.inverse()


def test_intertwiner_identity_tuple():
    ident = Matrix.identity(Q, 3)
    space = intertwiner_space([ident], [ident])
    assert space.dim == 9


def test_intertwiner_contains_known_conjugator():
    rng = random.Random(9)
    gf = FieldSpec.prime(7)
    d = 3
    while True:
        s = Matrix.from_ints(gf, [[rng.randrange(7) for _ in range(d)] for _ in range(d)])
        try:
            s_inv = s.inverse()
            break
        except Singular:
            continue
    tuple_a = [Matrix.from_ints(gf, [[rng.randrange(7) for _ in range(d)] for _ in range(d)]) for _ in range(3)]
    tuple_b = [s_inv * a * s for a in tuple_a]
    space = intertwiner_space(tuple_a, tuple_b)
    flat = [e for row in s.entries for e in row]
    assert space.contains_vector(flat)
    for row in space.basis.entries:
        t = matrix_from_flat(gf, row, d)
        for a, b in zip(tuple_a, tuple_b):
            assert t * b == a * t


def test_schur_dimension_via_enumeration(four_lines_result):
    # Independent oracle: count 2x2 matrices over GF(5) commuting with the
    # mod-5 reduction of the output tuple; the count 5^d gives the dimension.
    from radonmono.group import reduce_element_modp

    p = 5
    reduced = []
    for m in four_lines_result.gtilde:
        reduced.append([[reduce_element_modp(e, p) for e in row] for row in m.entries])

    def mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(2)) % p for j in range(2)]
            for i in range(2)
        ]

    count = 0
    for entries in itertools.product(range(p), repeat=4):
        t = [[entries[0], entries[1]], [entries[2], entries[3]]]
        if all(mul(t, m) == mul(m, t) for m in reduced):
            count += 1
    assert count == p  # dimension 1 mod 5

    space = intertwiner_space(list(four_lines_result.gtilde), list(four_lines_result.gtilde))
    assert space.dim == 1


def test_subspace_coordinates_round_trip():
    gf = FieldSpec.prime(5)
    s = Subspace.from_rows(
        gf, 3, [[gf.from_int(1), gf.from_int(2), gf.from_int(0)], [gf.from_int(0), gf.from_int(0), gf.from_int(1)]]
    )
    vec = [gf.from_int(2), gf.from_int(4), gf.from_int(3)]
    coords = s.coordinates(vec)
    assert coords == (gf.from_int(2), gf.from_int(3))
    with pytest.raises(AmbientMismatch):
        s.coordinates([gf.from_int(0), gf.from_int(1), gf.from_int(0)])


def test_shape_errors():
    with pytest.raises(ShapeMismatch):
        mat([[1, 2]]) * mat([[1, 2]])
    with pytest.raises(ShapeMismatch):
        hstack([mat([[1]]), mat([[1], [2]])])


def test_square_tuple_shape_serves_every_caller():
    a, one = mat([[0, 1], [1, 0]]), mat([[1]])
    assert square_tuple_shape([a, a]) == (Q, 2)
    mixed = (a, mat([[0, 1], [1, 0]], FieldSpec.prime(7)))
    callers = [
        square_tuple_shape,
        compute_E,
        compute_H,
        trafodat,
        MatrixGroupGen.from_matrices,
        lambda g: intertwiner_space(g, g),
        lambda g: check_relations(g, []),
    ]
    for fn in callers:
        for bad in ((), (a, one), (mat([[1, 2]]),)):
            with pytest.raises(ShapeMismatch):
                fn(bad)
        with pytest.raises(FieldMismatch):
            fn(mixed)
    with pytest.raises(ShapeMismatch):
        intertwiner_space([a], [a, a])


# -- products normalised once per entry, and the pair-by-pair intertwiner space -----

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the properties below need hypothesis
    given = None

PRODUCT_SPECS = [FieldSpec.prime(7), FieldSpec.prime(101), Q] + [FieldSpec.cyclotomic(m) for m in (3, 4, 5, 7, 12)]


def per_term_product(a, b):
    """a * b with every entry the per-term sum of field products."""
    zero = a.spec.zero()
    rows = [
        [sum((a.entries[i][t] * b.entries[t][j] for t in range(a.cols)), zero) for j in range(b.cols)]
        for i in range(a.rows)
    ]
    return Matrix.from_rows(a.spec, rows, cols=b.cols)


def stacked_intertwiner_space(tuple_a, tuple_b):
    """The left kernel of one d^2 x (k * d^2) block matrix, a block per pair."""
    d, spec = tuple_a[0].rows, tuple_a[0].spec
    zero = spec.zero()
    blocks = []
    for a, b in zip(tuple_a, tuple_b):
        # Row (pp, qq) of a block holds, in column (p, q), the coefficient of
        # T[pp][qq] in (T*B - A*T)[p][q].
        block = [[zero] * (d * d) for _ in range(d * d)]
        for pp in range(d):
            for qq in range(d):
                src = pp * d + qq
                for q in range(d):
                    block[src][pp * d + q] += b.entries[qq][q]
                for p in range(d):
                    block[src][p * d + qq] -= a.entries[p][pp]
        blocks.append(Matrix.from_rows(spec, block, cols=d * d))
    return kernel(hstack(blocks))


@pytest.mark.parametrize("spec", PRODUCT_SPECS, ids=lambda s: s.label())
def test_product_empty_shapes(spec):
    for k, j in ((0, 0), (2, 0), (0, 3), (3, 2)):
        wide = Matrix.zero(spec, k, 0) * Matrix.zero(spec, 0, j)  # k x 0 times 0 x j
        assert (wide.rows, wide.cols) == (k, j) and wide == Matrix.zero(spec, k, j)
        thin = Matrix.zero(spec, 0, k) * Matrix.zero(spec, k, j)  # 0 x k times k x j
        assert (thin.rows, thin.cols, thin.entries) == (0, j, ())


def test_product_mixed_denominators():
    half, third = Q.from_fraction(Fraction(1, 2)), Q.from_fraction(Fraction(1, 3))
    a = Matrix.from_rows(Q, [[half, third], [Q.zero(), half]])
    b = Matrix.from_rows(Q, [[third, Q.zero()], [half, third]])
    want = [[Fraction(1, 3), Fraction(1, 9)], [Fraction(1, 4), Fraction(1, 6)]]
    assert a * b == per_term_product(a, b) == Matrix.from_rows(Q, [[Q.from_fraction(v) for v in row] for row in want])


if given is not None:

    def _entries(spec):
        if spec.kind == "prime":
            value = st.integers(0, spec.p - 1).map(spec.from_int)
        else:
            coeff = st.fractions(min_value=-6, max_value=6, max_denominator=6)
            value = st.lists(coeff, min_size=spec.degree, max_size=spec.degree).map(spec.element)
        return st.one_of(st.just(spec.zero()), value)

    def _matrix(draw, entry, spec, rows, cols):
        grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        return Matrix.from_rows(spec, grid, cols=cols)

    @st.composite
    def product_case(draw):
        spec = draw(st.sampled_from(PRODUCT_SPECS))
        k, m, j = (draw(st.integers(0, 4)) for _ in range(3))
        entry = _entries(spec)
        return _matrix(draw, entry, spec, k, m), _matrix(draw, entry, spec, m, j)

    @settings(max_examples=150, deadline=None)
    @given(product_case())
    def test_product_equals_per_term_sum(case):
        a, b = case
        got = a * b
        assert (got.rows, got.cols) == (a.rows, b.cols)
        assert got == per_term_product(a, b)

    INTERTWINER_SPECS = [FieldSpec.prime(7), Q, FieldSpec.cyclotomic(6)]

    @st.composite
    def intertwiner_case(draw):
        """Two tuples of d x d matrices: scalar, unrelated, conjugate or equal."""
        spec = draw(st.sampled_from(INTERTWINER_SPECS))
        d = draw(st.integers(1, 3))
        k = draw(st.integers(1, 3))
        entry = _entries(spec)
        kind = draw(st.sampled_from(["scalar", "disjoint", "random", "conjugate", "same"]))
        if kind in ("scalar", "disjoint"):
            values = [draw(entry) for _ in range(k)]
            tuple_a = [Matrix.diagonal(spec, [v] * d) for v in values]
            # the first scalars differ for "disjoint", so only T = 0 solves that pair
            shift = [spec.one() if kind == "disjoint" and i == 0 else spec.zero() for i in range(k)]
            tuple_b = [Matrix.diagonal(spec, [v + s] * d) for v, s in zip(values, shift)]
            return tuple_a, tuple_b
        tuple_a = [_matrix(draw, entry, spec, d, d) for _ in range(k)]
        if kind == "same":
            return tuple_a, tuple_a
        if kind == "random":
            return tuple_a, [_matrix(draw, entry, spec, d, d) for _ in range(k)]
        s = _matrix(draw, entry, spec, d, d)
        try:
            s_inv = s.inverse()
        except Singular:
            s, s_inv = Matrix.identity(spec, d), Matrix.identity(spec, d)
        return tuple_a, [s_inv * a * s for a in tuple_a]

    @settings(max_examples=150, deadline=None)
    @given(intertwiner_case())
    def test_intertwiner_space_equals_stacked_kernel(case):
        tuple_a, tuple_b = case
        got = intertwiner_space(tuple_a, tuple_b)
        want = stacked_intertwiner_space(tuple_a, tuple_b)
        assert got.basis == want.basis and got.pivots == want.pivots

    @st.composite
    def matrix_by_three_routes(draw):
        """One matrix over GF(7), Q or Q(zeta_6) built from Fraction lists, from
        scaled numerators over a scaled denominator, and from sums of monomials."""
        spec = draw(st.sampled_from(INTERTWINER_SPECS))
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        coeff = st.fractions(min_value=-6, max_value=6, max_denominator=6)
        cell = st.lists(coeff, min_size=spec.degree, max_size=spec.degree)
        grid = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        scale = draw(st.sampled_from([2, 3, 5, 6, 10, 12]))  # a unit in GF(7)
        z = spec.gen() if spec.kind == "cyclotomic" else spec.one()
        routes = [
            spec.element,
            lambda v: spec.element([c * scale for c in v]) * spec.from_fraction(Fraction(1, scale)),
            lambda v: sum((spec.from_fraction(c) * z**e for e, c in enumerate(v)), spec.zero()),
        ]
        return [Matrix.from_rows(spec, [[route(v) for v in row] for row in grid], cols=cols) for route in routes]

    @settings(max_examples=150, deadline=None)
    @given(matrix_by_three_routes())
    def test_equal_matrices_hash_alike(mats):
        first = mats[0]
        for other in mats[1:]:
            assert other == first and hash(other) == hash(first)
        assert len(set(mats)) == 1


def _unipotent_pair(spec):
    # [[1, 1], [0, 1]] and [[1, 0], [1, 1]]: the first commutes with a plane, both with the scalars only
    return Matrix.from_ints(spec, [[1, 1], [0, 1]]), Matrix.from_ints(spec, [[1, 0], [1, 1]])


@pytest.mark.parametrize("spec", [FieldSpec.prime(7), Q, FieldSpec.cyclotomic(6)], ids=lambda s: s.label())
def test_endomorphisms_of_an_irreducible_tuple_are_the_scalars(spec, monkeypatch):
    from radonmono import linalg

    up, down = _unipotent_pair(spec)
    kernels = []
    monkeypatch.setattr(linalg, "kernel", lambda a: kernels.append(a) or kernel(a))
    tup = [up, down, up * down, down * up * up]
    space = intertwiner_space(tup, tup)
    assert space.basis == Matrix.from_ints(spec, [[1, 0, 0, 1]]) and space.pivots == (0,)
    # at dim 1 the space is the scalars: the last two pairs are not solved
    assert len(kernels) == 2
    assert space == stacked_intertwiner_space(tup, tup)


def test_hom_space_reaching_dim_one_goes_on():
    # the pairs agree but for the last, whose scalars differ: Hom reaches the
    # scalars after two pairs, and only the third makes it zero
    gf = FieldSpec.prime(7)
    up, down = _unipotent_pair(gf)
    one, two = Matrix.identity(gf, 2), Matrix.diagonal(gf, [gf.from_int(2)] * 2)
    tuple_a, tuple_b = [up, down, one], [up, down, two]
    assert intertwiner_space(tuple_a[:2], tuple_b[:2]).dim == 1
    space = intertwiner_space(tuple_a, tuple_b)
    assert space.dim == 0 and space == stacked_intertwiner_space(tuple_a, tuple_b)
    # a conjugate tuple: Hom is the line of the conjugator S, T*S^-1 A S = A*T
    s = Matrix.from_ints(gf, [[1, 2], [0, 1]])
    conjugate = [s.inverse() * a * s for a in tuple_a]
    space = intertwiner_space(tuple_a, conjugate)
    assert space.basis == Matrix.from_ints(gf, [[1, 2, 0, 1]])
    assert space == stacked_intertwiner_space(tuple_a, conjugate)


def test_intertwiner_space_dimension_extremes():
    gf = FieldSpec.prime(7)
    two, three = Matrix.diagonal(gf, [gf.from_int(2)] * 3), Matrix.diagonal(gf, [gf.from_int(3)] * 3)
    everything = intertwiner_space([two, three], [two, three])
    assert everything.dim == 9 and everything == stacked_intertwiner_space([two, three], [two, three])
    nothing = intertwiner_space([two, two], [two, three])
    assert nothing.dim == 0 and nothing == stacked_intertwiner_space([two, two], [two, three])
