import itertools
import random

import pytest

from deformation import local_matrix, word_matrix
from radonmono.braid import BraidWord, act_on_tuple
from radonmono.cocycle import compute_E, compute_H, phibar, trafodat
from radonmono.errors import ProductNotIdentity, ShapeMismatch, Singular, StrandOutOfRange
from radonmono.field import FieldSpec
from radonmono.linalg import Matrix, product_of, rref
from radonmono.radon import FundamentalData, radon_rank, radon_transform

Q = FieldSpec.rational()
Q6 = FieldSpec.cyclotomic(6)


def scalar_tuple(spec, value, r):
    return tuple(Matrix.from_rows(spec, [[value]]) for _ in range(r))


def minus_ones():
    return scalar_tuple(Q, Q.from_int(-1), 4)


def zeta_tuple():
    return scalar_tuple(Q6, Q6.gen(), 6)


# -- independent oracle: enumerate the cocycle space over a small prime field --


def brute_cocycle_dim_scalars(p, scalars):
    """Count solutions over GF(p) for scalar n=1 tuples by full enumeration."""
    r = len(scalars)
    suffix = [1] * (r + 1)
    for i in range(r - 1, 0, -1):
        suffix[i] = scalars[i] * suffix[i + 1] % p
    count = 0
    for v in itertools.product(range(p), repeat=r):
        if any(scalars[i] == 1 and v[i] != 0 for i in range(r)):
            continue
        if sum(v[i] * suffix[i + 1] for i in range(r)) % p == 0:
            count += 1
    dim = 0
    while p ** dim < count:
        dim += 1
    assert p ** dim == count, "solution count is not a power of p"
    return dim


def test_cocycle_dim_oracle_minus_ones():
    # four points of quadratic monodromy: enumeration over GF(5) gives dim 3
    assert brute_cocycle_dim_scalars(5, [4, 4, 4, 4]) == 3
    assert compute_H(minus_ones()).dim == 3


def test_cocycle_dim_oracle_zeta6():
    # six points of monodromy zeta_6, reduced mod 7 where 3 has order 6
    assert pow(3, 6, 7) == 1 and all(pow(3, k, 7) != 1 for k in range(1, 6))
    assert brute_cocycle_dim_scalars(7, [3] * 6) == 5
    assert compute_H(zeta_tuple()).dim == 5


def test_cocycle_space_trivial_for_identities():
    g = scalar_tuple(Q, Q.one(), 2)
    assert compute_H(g).dim == 0


def test_coboundary_dims():
    assert compute_E(minus_ones()).dim == 1
    assert compute_E(scalar_tuple(Q, Q.one(), 3)).dim == 0
    assert compute_E(zeta_tuple()).dim == 1


def test_product_precondition():
    bad = scalar_tuple(Q, Q.from_int(-1), 3)
    with pytest.raises(ProductNotIdentity):
        compute_H(bad)
    # c b a = 1 but a b c = a b a^-1 b^-1 is not: the product is taken in order
    a = Matrix.from_ints(Q, [[1, 1], [0, 1]])
    b = Matrix.from_ints(Q, [[1, 0], [1, 1]])
    reversed_product = (a, b, a.inverse() * b.inverse())
    assert product_of(reversed_product[::-1]).is_identity()
    for fn in (compute_H, compute_E, trafodat):
        for g in (bad, reversed_product, (a,)):
            with pytest.raises(ProductNotIdentity):
                fn(g)
        with pytest.raises(ShapeMismatch):  # the shape check comes first
            fn((a, Matrix.from_ints(Q, [[2]])))


def test_trafodat_dims():
    ts = trafodat(minus_ones())
    assert (ts.dim_e, ts.dim_h, ts.dim_w) == (1, 3, 2)
    ts6 = trafodat(zeta_tuple())
    assert (ts6.dim_e, ts6.dim_h, ts6.dim_w) == (1, 5, 4)
    ts1 = trafodat(scalar_tuple(Q, Q.one(), 3))
    assert (ts1.dim_e, ts1.dim_h, ts1.dim_w) == (0, 0, 0)
    # flag structure: first rows span E, first dim_h rows span H
    from radonmono.linalg import Subspace

    ts = trafodat(minus_ones())
    lead = Subspace.from_rows(Q, 4, greedy_flag(ts.E, ts.H, 4).entries[:1])
    assert lead == ts.E


def test_local_matrix_golden():
    g = minus_ones()
    m = local_matrix(g, 1)
    assert m == Matrix.from_ints(Q, [[0, -1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_local_matrix_inverse_pair():
    # L(g, i) * L(act(g, i), -i) = 1 for positive and negative letters i,
    # over every kind of field the fixtures use
    for spec in (FieldSpec.prime(7), Q, Q6):
        rng = random.Random(55)
        for _ in range(10):
            n, r = rng.randint(1, 3), rng.randint(3, 5)
            g = _random_tuple(rng, spec, n, r)
            for i in list(range(1, r)) + [-k for k in range(1, r)]:
                advanced = act_on_tuple(g, [i])
                assert local_matrix(g, i) * local_matrix(advanced, -i) == Matrix.identity(
                    spec, n * r
                )


def test_local_matrix_identity_tuple_swap():
    g = scalar_tuple(Q, Q.one(), 3)
    m = local_matrix(g, 1)
    assert m == Matrix.from_ints(Q, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def test_local_matrix_range():
    with pytest.raises(StrandOutOfRange):
        local_matrix(minus_ones(), 4)
    with pytest.raises(StrandOutOfRange):
        local_matrix(minus_ones(), 0)


def test_out_of_range_letter_raises_strand_error():
    g = minus_ones()
    ts = trafodat(g)
    for letter in (0, 4, -4):
        with pytest.raises(StrandOutOfRange):
            act_on_tuple(g, [1, letter])
        with pytest.raises(StrandOutOfRange):
            phibar(ts, [letter])
        with pytest.raises(StrandOutOfRange):
            word_matrix(g, [letter, 1])
    assert act_on_tuple((), []) == ()


def test_word_matrix_examples():
    g = minus_ones()
    assert word_matrix(g, []) == Matrix.identity(Q, 4)
    w = [1, 2, -2, -1]
    assert word_matrix(g, w) == Matrix.identity(Q, 4)
    sq = word_matrix(g, [1, 1])
    assert Matrix.from_rows(Q, [row[:2] for row in sq.entries[:2]]) == Matrix.from_ints(Q, [[-1, -2], [2, 3]])


def _random_entry(rng, spec):
    if spec.kind == "prime":
        return spec.from_int(rng.randrange(spec.p))
    return spec.element([rng.randint(-2, 2) for _ in range(spec.degree)])


def _random_invertible(rng, spec, n):
    while True:
        m = Matrix.from_rows(spec, [[_random_entry(rng, spec) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
            return m
        except Exception:
            continue


def _random_tuple(rng, spec, n, r):
    mats = [_random_invertible(rng, spec, n) for _ in range(r - 1)]
    mats.append(product_of(mats).inverse())
    return tuple(mats)


def _fixed_vector_tuple(rng, spec, n, r):
    """A product-one tuple whose first r - 1 entries are conjugates of
    diagonal matrices with each eigenvalue 1 with probability 0.6, so most
    have fixed vectors: identities, pseudo-reflections and others."""
    mats = []
    for _ in range(r - 1):
        diag = [spec.one() if rng.random() < 0.6 else _random_entry(rng, spec) for _ in range(n)]
        if any(d.is_zero() for d in diag):
            diag = [spec.one()] * n
        s = _random_invertible(rng, spec, n)
        mats.append(s.inverse() * Matrix.diagonal(spec, diag) * s)
    mats.append(product_of(mats).inverse())
    return tuple(mats)


def _aligned_tuple(rng, spec, n, r):
    """A product-one tuple with g_{r-2} - 1 = [* | a] and g_{r-1} - 1 = a w
    (n >= 2): E then has two proportional coordinates among the last pivots
    of H, so the greedy pass over the rows of H skips one before the end."""
    one = Matrix.identity(spec, n)
    while True:
        a = [_random_entry(rng, spec) for _ in range(n)]
        w = [_random_entry(rng, spec) for _ in range(n)]
        refl = one + Matrix.from_rows(spec, [[x * y for y in w] for x in a])
        prev = one + Matrix.from_rows(spec, [[_random_entry(rng, spec) for _ in range(n - 1)] + [x] for x in a])
        mats = [_random_invertible(rng, spec, n) for _ in range(r - 3)] + [prev, refl]
        try:
            mats.append(product_of(mats).inverse())
        except Singular:
            continue
        return tuple(mats)


TUPLE_KINDS = (_random_tuple, _fixed_vector_tuple, _aligned_tuple)


def test_cocycle_rule_exact():
    rng = random.Random(1009)
    gf = FieldSpec.prime(5)
    for _ in range(25):
        n, r = rng.randint(1, 3), rng.randint(3, 6)
        g = _random_tuple(rng, gf, n, r)
        letters = [i for i in range(-(r - 1), r) if i != 0]
        w1 = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
        w2 = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
        lhs = word_matrix(g, w1 + w2)
        rhs = word_matrix(g, w1) * word_matrix(act_on_tuple(g, w1), w2)
        assert lhs == rhs


def test_stability_of_cocycle_spaces():
    rng = random.Random(4201)
    gf = FieldSpec.prime(7)
    for _ in range(15):
        n, r = rng.randint(1, 2), rng.randint(3, 5)
        g = _random_tuple(rng, gf, n, r)
        letters = [i for i in range(-(r - 1), r) if i != 0]
        word = [rng.choice(letters) for _ in range(rng.randint(1, 5))]
        full, target = word_matrix(g, word), act_on_tuple(g, word)
        h_src, e_src = compute_H(g), compute_E(g)
        h_tgt, e_tgt = compute_H(target), compute_E(target)
        for row in (h_src.basis * full).entries:
            assert h_tgt.contains_vector(row)
        for row in (e_src.basis * full).entries:
            assert e_tgt.contains_vector(row)


def test_braid_relation_on_cocycle_space():
    # full matrices differ, but the induced maps agree on H
    rng = random.Random(83)
    gf = FieldSpec.prime(5)
    for _ in range(15):
        n, r = rng.randint(1, 2), rng.randint(3, 5)
        g = _random_tuple(rng, gf, n, r)
        h = compute_H(g)
        for i in range(1, r - 1):
            lhs = word_matrix(g, [i, i + 1, i])
            rhs = word_matrix(g, [i + 1, i, i + 1])
            assert h.basis * lhs == h.basis * rhs


def test_phibar_examples(four_lines_fd):
    g = minus_ones()
    ts = trafodat(g)
    assert phibar(ts, [])[0] == Matrix.identity(Q, 2)
    sq = phibar(ts, [1, 1], verify=True)[0]
    # basis-independent invariants of a unipotent transvection square
    assert sq.entries[0][0] + sq.entries[1][1] == Q.from_int(2)
    assert sq != Matrix.identity(Q, 2)
    # inverse pair on a fixed tuple
    word = BraidWord(4, (1, 2, 2, 1))
    inv = word.inverse()
    assert phibar(ts, word)[0] * phibar(ts, inv)[0] == Matrix.identity(Q, 2)


# -- differential: the projected phibar against the dense conjugated product --


def dense_letter(g, letter):
    """The nr x nr matrix of one letter, assembled from the block formulas in
    the `deformation.local_matrix` docstring by plain list slicing."""
    n, r, spec = g[0].rows, len(g), g[0].spec
    i = abs(letter) - 1
    gi, gi1 = g[i], g[i + 1]
    one, zero = Matrix.identity(spec, n), Matrix.zero(spec, n, n)
    if letter > 0:
        blocks = [[zero, gi1], [one, one - gi1.inverse() * gi * gi1]]
    else:
        blocks = [[(gi1 - one) * gi.inverse(), one], [gi.inverse(), zero]]
    out = [list(row) for row in Matrix.identity(spec, n * r).entries]
    for bi in range(2):
        for bj in range(2):
            for k in range(n):
                out[n * (i + bi) + k][n * (i + bj) : n * (i + bj + 1)] = blocks[bi][bj].entries[k]
    return Matrix.from_rows(spec, out)


def dense_word(g, word):
    """The left-to-right product of the letter matrices while the tuple advances."""
    full = Matrix.identity(g[0].spec, g[0].rows * len(g))
    for letter in word:
        full = full * dense_letter(g, letter)
        g = act_on_tuple(g, [letter])
    return full


def dense_phibar(g, word, ts):
    """The middle dim_w block of T * dense_word * T^-1, T the greedy flag."""
    flag = greedy_flag(ts.E, ts.H, g[0].rows * len(g))
    conj = flag * dense_word(g, word) * flag.inverse()
    lo, hi = ts.dim_e, ts.dim_h
    return Matrix.from_rows(g[0].spec, [row[lo:hi] for row in conj.entries[lo:hi]], cols=ts.dim_w)


@pytest.mark.parametrize("spec", [FieldSpec.prime(101), Q, Q6], ids=["GF101", "Q", "Qzeta6"])
def test_phibar_against_dense_product(spec):
    # random words mixing positive and negative letters, and the empty word
    rng = random.Random(f"phibar:{spec.label()}")
    for case in range(12):
        n, r = rng.randint(1 + (case % 3 == 2), 3), rng.randint(3, 5)
        g = TUPLE_KINDS[case % 3](rng, spec, n, r)
        ts = trafodat(g)
        letters = [i for i in range(-(r - 1), r) if i != 0]
        for word in [[]] + [[rng.choice(letters) for _ in range(rng.randint(1, 6))] for _ in range(3)]:
            expected = dense_phibar(g, word, ts)
            assert phibar(ts, word)[0] == expected
            assert phibar(ts, word, verify=True)[0] == expected
            assert word_matrix(g, word) == dense_word(g, word)


def greedy_flag(e, h, size):
    """The rows of E, then each row of H, then each unit vector e_i, each kept
    when it raises the rank of the rows kept so far."""
    spec = e.spec
    kept = list(e.basis.entries)
    units = [tuple(spec.one() if j == i else spec.zero() for j in range(size)) for i in range(size)]
    for row in list(h.basis.entries) + units:
        if rref(Matrix.from_rows(spec, kept + [row], cols=size))[2] > len(kept):
            kept.append(row)
    return Matrix.from_rows(spec, kept, cols=size)


@pytest.mark.parametrize("spec", [FieldSpec.prime(7), Q, Q6], ids=["GF7", "Q", "Qzeta6"])
def test_transition_is_the_greedy_flag(spec):
    rng = random.Random(f"flag:{spec.label()}")
    skipped = 0
    for case in range(12):
        n, r = rng.randint(1 + (case % 3 == 2), 3), rng.randint(3, 5)
        g = TUPLE_KINDS[case % 3](rng, spec, n, r)
        ts = trafodat(g)
        assert greedy_flag(ts.E, ts.H, n * r) == kept_flag(ts)
        skipped += ts.middle != tuple(range(ts.dim_w))
    assert skipped  # some H row before the last one is not taken
    ts = trafodat(minus_ones())
    assert greedy_flag(ts.E, ts.H, 4) == kept_flag(ts)


def kept_flag(ts):
    """The E rows, then the H rows at `ts.middle`, then the unit vectors at
    `ts.complement`."""
    spec, size = ts.E.spec, ts.n * ts.r
    units = [tuple(spec.one() if j == i else spec.zero() for j in range(size)) for i in ts.complement]
    middle = [ts.H.basis.entries[j] for j in ts.middle]
    return Matrix.from_rows(spec, list(ts.E.basis.entries) + middle + units, cols=size)


@pytest.mark.parametrize("spec", [FieldSpec.prime(101), Q, Q6], ids=["GF101", "Q", "Qzeta6"])
def test_phibar_returns_the_target_tuple(spec):
    # the full twist fixes every product-one tuple; [1, -3] moves a random one
    rng = random.Random(f"target:{spec.label()}")
    n, r = 2, 4
    g = _random_tuple(rng, spec, n, r)
    ts = trafodat(g)
    twist = list(range(1, r)) * r
    for word, fixes in ((twist, True), ([1, -3], False)):
        target = phibar(ts, word)[1]
        assert target == act_on_tuple(g, word)
        assert (target == g) is fixes
        assert phibar(ts, word, verify=True)[1] == target
    # an entry the word fixes is the tuple's own matrix, not a converted copy
    assert all(a is b for a, b in zip(phibar(ts, twist)[1], ts.g))
    target = phibar(ts, [1, 1])[1]
    assert target == act_on_tuple(g, [1, 1])
    assert [a is b for a, b in zip(target, ts.g)] == [False, False, True, True]


@pytest.mark.parametrize("spec", [FieldSpec.prime(101), Q, Q6], ids=["GF101", "Q", "Qzeta6"])
def test_rank_formula_read_off_conditions_matches_radon_rank(spec):
    # tuples with fixed vectors: pseudo-reflections and inserted identity entries
    rng = random.Random(f"rank:{spec.label()}")
    fixed_total = 0
    for _ in range(10):
        n, r = rng.randint(1, 3), rng.randint(3, 5)
        g = _fixed_vector_tuple(rng, spec, n, r - 1)
        k = rng.randrange(r)
        g = g[:k] + (Matrix.identity(spec, n),) + g[k:]
        fd = FundamentalData(spec=spec, n=n, r=r, g=g, omegas=())
        assert radon_transform(fd).rank_formula == radon_rank(fd)
        fixed_total += n * (r - 2) - radon_rank(fd)
    assert fixed_total > 10 * 3  # the identity entries give at most 3 fixed vectors a case
