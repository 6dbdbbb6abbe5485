import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from radonmono.cli import fixture_path
from radonmono.errors import (
    BadPrime,
    CapExceeded,
    NonInvertibleGenerator,
    OrderDisagreement,
    Singular,
    ZeroSeed,
)
from radonmono.field import FieldSpec
from radonmono.group import (
    DEFAULT_CAP,
    MatrixGroupGen,
    closure,
    contains_scalar,
    default_modular_primes,
    derived_series,
    fixed_subspace,
    invariant_decomposition,
    modular_group_analysis,
    moving_subspace,
    reduce_element_modp,
    reduce_matrix_modp,
    restricted_tuple,
    root_of_unity_modp,
    spin,
    spin_subspace,
)
from radonmono.linalg import Matrix, Subspace, intertwiner_space
from radonmono.radon import load_fundamental_data, parse_fundamental_data, radon_transform

Q6 = FieldSpec.cyclotomic(6)
GF7 = FieldSpec.prime(7)
DATA = os.path.join(os.path.dirname(__file__), "data")


def scalar_matrix(spec, value, d):
    return Matrix.diagonal(spec, [value] * d)


def test_closure_cyclic_scalar_group():
    gen = scalar_matrix(Q6, Q6.gen(), 4)
    assert closure([gen]).order == 6


def test_closure_cap():
    gen = scalar_matrix(Q6, Q6.gen(), 4)
    with pytest.raises(CapExceeded):
        closure([gen], cap=3)


def test_closure_rejects_singular_generator():
    with pytest.raises(NonInvertibleGenerator):
        closure([Matrix.zero(Q6, 2, 2)])


def test_closure_contains_inverses():
    rng = random.Random(6)
    mats = []
    while len(mats) < 2:
        m = Matrix.from_ints(GF7, [[rng.randrange(7) for _ in range(2)] for _ in range(2)])
        try:
            m.inverse()
            mats.append(m)
        except Exception:
            continue
    result = closure(mats, cap=100000)
    for m in mats:
        assert m.inverse() in result.elements


def test_contains_scalar():
    gen = scalar_matrix(Q6, Q6.gen(), 3)
    result = closure([gen])
    assert contains_scalar(result, Q6.one())
    assert contains_scalar(result, Q6.gen() ** 2)
    assert contains_scalar(result, Q6.gen() ** 6)  # one() built by another route
    minus = scalar_matrix(Q6, Q6.from_int(-1), 2)
    result2 = closure([minus])
    assert not contains_scalar(result2, Q6.gen())
    with pytest.raises(CapExceeded):
        closure([gen], cap=2)


def test_derived_series_abelian():
    gen = scalar_matrix(Q6, Q6.gen(), 2)
    assert derived_series([gen]) == [6, 1]


def test_derived_series_s3():
    # symmetric group on three letters as permutation matrices
    swap = Matrix.from_ints(Q6, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cycle = Matrix.from_ints(Q6, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    series = derived_series([swap, cycle])
    assert series == [6, 3, 1]


def test_spin_examples():
    swap = Matrix.from_ints(Q6, [[0, 1], [1, 0]])
    full = spin([swap], [Q6.one(), Q6.zero()])
    assert full.dim == 2
    fixed_seed = spin([swap], [Q6.one(), Q6.one()])
    assert fixed_seed.dim == 1
    with pytest.raises(ZeroSeed):
        spin([swap], [Q6.zero(), Q6.zero()])


def test_spin_output_is_stable():
    rng = random.Random(14)
    mats = []
    while len(mats) < 2:
        m = Matrix.from_ints(GF7, [[rng.randrange(7) for _ in range(3)] for _ in range(3)])
        try:
            m.inverse()
            mats.append(m)
        except Exception:
            continue
    seed = [GF7.one(), GF7.zero(), GF7.zero()]
    space = spin(mats, seed)
    for m in mats:
        for row in (space.basis * m).entries:
            assert space.contains_vector(row)


def test_fixed_and_moving_subspaces():
    swap = Matrix.from_ints(Q6, [[0, 1], [1, 0]])
    assert fixed_subspace([swap]).dim == 1
    assert moving_subspace([swap]).dim == 1
    deco = invariant_decomposition([swap])
    assert deco["fixed_dim"] == 1 and deco["moving_dim"] == 1 and deco["decomposes"]


def test_root_of_unity_modp():
    assert root_of_unity_modp(6, 7) == 3
    assert root_of_unity_modp(6, 13) == 4
    assert root_of_unity_modp(1, 5) == 1
    with pytest.raises(BadPrime):
        root_of_unity_modp(6, 5)
    with pytest.raises(BadPrime):
        root_of_unity_modp(6, 9)


def test_reduce_matrix_modp():
    import numpy as np

    z = Q6.gen()
    m = Matrix.from_rows(Q6, [[z, Q6.one()], [Q6.zero(), z * z]])
    reduced = reduce_matrix_modp(m, 7)
    assert reduced.tolist() == [[3, 1], [0, 2]]  # z maps to 3, z^2 to 9 = 2
    assert reduced.dtype == np.int64


def test_modular_order_scalar_group():
    gen = scalar_matrix(Q6, Q6.gen(), 2)
    assert modular_group_analysis([gen], [7, 13], with_derived=False)["order"] == 6


def test_modular_order_matches_exact_closure():
    swap = Matrix.from_ints(Q6, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cycle = Matrix.from_ints(Q6, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    exact = closure([swap, cycle]).order
    assert modular_group_analysis([swap, cycle], [7, 13], with_derived=False)["order"] == exact == 6


def test_modular_order_bad_prime_denominator():
    m = Matrix.from_rows(Q6, [[Q6.from_fraction(__import__("fractions").Fraction(1, 7))]])
    with pytest.raises(BadPrime):
        modular_group_analysis([m], [7, 13], with_derived=False)


def test_modular_order_disagreement_on_infinite_group():
    # an infinite unipotent group truncates to order p mod p, so two primes
    # disagree and the disagreement is detected
    q = FieldSpec.rational()
    shear = Matrix.from_ints(q, [[1, 1], [0, 1]])
    with pytest.raises(OrderDisagreement):
        modular_group_analysis([shear], [3, 5], with_derived=False)


def test_derived_series_cap_exceeded():
    swap = Matrix.from_ints(Q6, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cycle = Matrix.from_ints(Q6, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(CapExceeded):
        derived_series([swap, cycle], cap=2)


def test_default_modular_primes():
    def ident(spec):
        return [Matrix.identity(spec, 2)]

    assert default_modular_primes(ident(Q6)) == [7, 13]
    assert default_modular_primes(ident(FieldSpec.rational())) == [3, 5]
    assert default_modular_primes(ident(FieldSpec.cyclotomic(4))) == [5, 13]
    assert default_modular_primes(ident(GF7)) == [7]


def test_matrix_group_gen_validation():
    with pytest.raises(NonInvertibleGenerator):
        MatrixGroupGen.from_matrices([Matrix.zero(Q6, 2, 2)])
    group = MatrixGroupGen.from_matrices([Matrix.identity(Q6, 2)])
    assert group.degree == 2


def test_derived_series_lagrange_property():
    rng = random.Random(8)
    mats = []
    while len(mats) < 2:
        m = Matrix.from_ints(GF7, [[rng.randrange(7) for _ in range(2)] for _ in range(2)])
        try:
            m.inverse()
            mats.append(m)
        except Exception:
            continue
    series = derived_series(mats, cap=200000)
    for larger, smaller in zip(series, series[1:]):
        assert larger % smaller == 0 and smaller <= larger


# -- one engine, exact and mod p ---------------------------------------------------

Q = FieldSpec.rational()


def permutation_matrix(spec, perm):
    d = len(perm)
    return Matrix.from_ints(spec, [[1 if perm[i] == j else 0 for j in range(d)] for i in range(d)])


def s4_generators(spec=Q):
    return [permutation_matrix(spec, (1, 0, 2, 3)), permutation_matrix(spec, (1, 2, 3, 0))]


def a5_generators(spec=Q):
    return [permutation_matrix(spec, (1, 2, 3, 4, 0)), permutation_matrix(spec, (1, 2, 0, 3, 4))]


def test_engine_s4_series_exact_and_modular():
    gens = s4_generators()
    assert derived_series(gens) == [24, 12, 4, 1]
    analysis = modular_group_analysis(gens, [5, 7])
    assert analysis["order"] == 24
    assert analysis["derived_series"] == [24, 12, 4, 1]
    assert analysis["solvable"] is True


def test_engine_a5_is_perfect_exact_and_modular():
    gens = a5_generators()
    assert derived_series(gens) == [60, 60]
    analysis = modular_group_analysis(gens, [3, 5])
    assert analysis["derived_series"] == [60, 60]
    assert analysis["solvable"] is False


def test_engine_repeated_and_redundant_generators():
    a, b = s4_generators()
    ident = Matrix.identity(Q, 4)
    noisy = [a, a, b, a * b, ident, b * b * b, b.inverse(), a]
    assert closure(noisy).order == 24
    assert derived_series(noisy) == [24, 12, 4, 1]
    assert modular_group_analysis(noisy, [5, 7])["derived_series"] == [24, 12, 4, 1]
    assert derived_series([ident, ident]) == [1]
    assert derived_series([Matrix.identity(Q, 0)]) == [1]  # the group of the zero space


def test_from_matrices_drops_repeated_generators(zariski_c_result):
    a, b = s4_generators()
    assert MatrixGroupGen.from_matrices([a, a, b]).generators == (a, b)
    assert MatrixGroupGen.from_matrices([b, a, b, a]).generators == (b, a)
    noisy, plain = [a, b, a, a, b], [a, b]
    assert invariant_decomposition(noisy) == invariant_decomposition(plain)
    assert modular_group_analysis(noisy, [5, 7]) == modular_group_analysis(plain, [5, 7])
    # the zariski_c output tuple has 18 entries but 7 distinct matrices
    gtilde = list(zariski_c_result.gtilde)
    assert len(gtilde) == 18
    assert len(MatrixGroupGen.from_matrices(gtilde).generators) == 7


def test_engine_cap_boundary():
    gens = s4_generators()
    assert closure(gens, cap=24).order == 24
    with pytest.raises(CapExceeded):
        closure(gens, cap=23)
    assert derived_series(gens, cap=24) == [24, 12, 4, 1]
    with pytest.raises(CapExceeded):
        derived_series(gens, cap=23)
    # a closure result is continued, not enumerated again
    assert derived_series(closure(gens, cap=24)) == [24, 12, 4, 1]
    with pytest.raises(CapExceeded):
        derived_series(closure(gens, cap=23))
    assert modular_group_analysis(gens, [5, 7], cap=24)["order"] == 24
    with pytest.raises(CapExceeded):
        modular_group_analysis(gens, [5, 7], cap=23)


def test_modular_rejects_generator_singular_mod_p():
    three = Matrix.from_ints(Q, [[3]])
    with pytest.raises(NonInvertibleGenerator):
        modular_group_analysis([three], [5, 3], with_derived=False)


def test_modular_prime_rules():
    shear = Matrix.from_ints(Q, [[1, 1], [0, 1]])
    for primes in ([7, 7], [4, 9], [2, 3], [3, 1], [4000000007, 4000000009]):
        with pytest.raises(BadPrime):
            modular_group_analysis([shear], primes)
    gf7 = [Matrix.from_ints(GF7, [[1, 1], [0, 1]])]
    assert modular_group_analysis(gf7, [7])["derived_series"] == [7, 1]
    with pytest.raises(BadPrime):
        modular_group_analysis(gf7, [5])


def _random_permutations(seed):
    rng = random.Random(seed)
    degree = rng.randint(2, 6)
    perms = []
    for _ in range(rng.randint(1, 3)):
        perm = list(range(degree))
        rng.shuffle(perm)
        perms.append(perm)
    return perms


@pytest.mark.parametrize("seed", range(12))
def test_derived_series_against_sympy(seed):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    perms = _random_permutations(seed)
    group = combinatorics.PermutationGroup([combinatorics.Permutation(p) for p in perms])
    expected = [g.order() for g in group.derived_series()]
    if expected[-1] != 1:
        expected.append(expected[-1])  # a perfect subgroup ends our series twice
    assert derived_series([permutation_matrix(GF7, p) for p in perms]) == expected
    assert derived_series([permutation_matrix(Q, p) for p in perms]) == expected
    for primes in ([3, 5], [257, 263]):  # uint8 and uint16 keys
        analysis = modular_group_analysis([permutation_matrix(Q, p) for p in perms], primes)
        assert analysis["derived_series"] == expected


def test_modular_keys_wider_than_a_byte(zariski_c_result):
    # 271 and 277 are 1 mod 6, and their residues need two bytes per entry
    gens = list(zariski_c_result.gtilde)
    for primes in ([7, 13], [271, 277]):
        analysis = modular_group_analysis(gens, primes)
        assert analysis["order"] == 648
        assert analysis["derived_series"] == [648, 216, 54, 27, 3, 1]
    # the shear generates a group of order p whose (0, 1) entries take every
    # residue, so a key that dropped the high bytes would merge elements
    for p in (263, 65537):  # two- and four-byte residues
        shear = Matrix.from_ints(FieldSpec.prime(p), [[1, 1], [0, 1]])
        assert modular_group_analysis([shear], [p])["derived_series"] == [p, 1]


# -- the mod-p stabilizer chain against the exact enumeration -----------------------


def _random_integer_generators(seed):
    rng = random.Random(seed)
    p, d = rng.choice([3, 5, 7]), rng.randint(1, 3)
    count = rng.randint(1, 3)
    rows = []
    while len(rows) < count:
        cand = [[rng.choice([0, 0, 1, -1, rng.randrange(p)]) for _ in range(d)] for _ in range(d)]
        try:
            Matrix.from_ints(FieldSpec.prime(p), cand).inverse()
        except Singular:
            continue
        rows.append(cand)
    return p, d, rows


@pytest.mark.parametrize("seed", range(30))
def test_chain_matches_exact_enumeration(seed):
    # Integer generators: the chain works on them over Q at the single prime
    # p, the exact enumeration on the same matrices over GF(p).
    p, _, rows = _random_integer_generators(seed)
    gf = FieldSpec.prime(p)
    cap = 3000
    gens = [Matrix.from_ints(Q, r) for r in rows]
    try:
        exact = closure([Matrix.from_ints(gf, r) for r in rows], cap=cap)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            modular_group_analysis(gens, [p], cap=cap)
        return
    series = derived_series(exact)
    scalars = [k for k in (0, 1) if contains_scalar(exact, gf.from_int((-1) ** k))]
    assert modular_group_analysis(gens, [p], cap=cap) == {
        "primes": [p],
        "order": exact.order,
        "scalar_exponents": scalars,
        "derived_series": series,
        "solvable": series[-1] == 1,
    }


def _symplectic_transvection(spec, v):
    # x -> x + <x, v> v on row vectors, with <x, y> = x J y^T and J = [[0, I], [-I, 0]]
    jv = [v[2], v[3], -v[0], -v[1]]
    return Matrix.from_ints(spec, [[(i == j) + jv[i] * v[j] for j in range(4)] for i in range(4)])


def test_chain_sp45_beyond_the_default_cap():
    gf5 = FieldSpec.prime(5)
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)]
    gens = [_symplectic_transvection(gf5, v) for v in basis]
    # |Sp(4, 5)| = 5^4 (5^2 - 1)(5^4 - 1), and Sp(4, 5) is perfect
    analysis = modular_group_analysis(gens, [5], cap=10**7)
    assert analysis["order"] == 9_360_000
    assert analysis["derived_series"] == [9_360_000, 9_360_000]
    with pytest.raises(CapExceeded):
        modular_group_analysis(gens, [5])


def test_chain_cap_boundary_on_several_levels(zariski_cprime_result):
    gens = list(zariski_cprime_result.gtilde)
    analysis = modular_group_analysis(gens, [7], cap=155_520)
    assert analysis["order"] == 155_520
    assert analysis["derived_series"] == [155_520, 51_840, 51_840]
    with pytest.raises(CapExceeded):
        modular_group_analysis(gens, [7], cap=155_519)


def _shear_level_by_breadth_first_search(p):
    """The orbit of e_0 under the shear s = [[1, 1], [0, 1]] mod p, one point per round:
    its points in the order met, with the transversal and its inverses as nested lists."""

    def times(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(2)) % p for j in range(2)] for i in range(2)]

    s, s_inv = [[1, 1], [0, 1]], [[1, p - 1], [0, 1]]
    u, u_inv = [[[1, 0], [0, 1]]], [[[1, 0], [0, 1]]]
    points, seen = [[1, 0]], {(1, 0)}
    frontier = [0]
    while frontier:
        found = []
        for i in frontier:
            image = times(u[i], s)
            if tuple(image[0]) not in seen:
                seen.add(tuple(image[0]))
                points.append(image[0])
                u.append(image)
                u_inv.append(times(s_inv, u_inv[i]))
                found.append(len(u) - 1)
        frontier = found
    return points, u, u_inv


@pytest.mark.parametrize("p", [263, 65537])
def test_cyclic_orbit_grows_by_doubling(p, monkeypatch):
    import numpy as np

    from radonmono.chain import StabilizerChain

    points, u, u_inv = _shear_level_by_breadth_first_search(p)
    keyed, sifted = [], []
    keys, sift = StabilizerChain._keys, StabilizerChain._sift

    def counting_keys(self, vectors):
        keyed.append(len(vectors))
        return keys(self, vectors)

    def counting_sift(self, h, start, h_inv=None):
        if start > 0 and h_inv is None:  # a batch of Schreier generators
            sifted.append(len(h))
        return sift(self, h, start, h_inv)

    monkeypatch.setattr(StabilizerChain, "_keys", counting_keys)
    monkeypatch.setattr(StabilizerChain, "_sift", counting_sift)
    s = np.array([[1, 1], [0, 1]])
    chain = StabilizerChain(p, 2, DEFAULT_CAP, [(s, np.array([[1, p - 1], [0, 1]]))])
    (level,) = chain.levels
    assert chain.order == p and level.base == 0
    assert list(level.points.values()) == list(range(p))
    assert list(level.points) == keys(chain, np.array(points))
    assert level.u.tolist() == u and level.u_inv.tolist() == u_inv
    # one key batch per doubling, not one per point
    assert len(keyed) < 3 * p.bit_length()
    # u_x s = u_{x+1} for every point x but the last, whose Schreier generator is s^p = 1: it alone is sifted
    assert sifted == [1]
    monkeypatch.undo()
    gen = Matrix.from_ints(FieldSpec.prime(p), [[1, 1], [0, 1]])
    assert modular_group_analysis([gen], [p], cap=p)["derived_series"] == [p, 1]
    with pytest.raises(CapExceeded):
        modular_group_analysis([gen], [p], cap=p - 1)


def test_import_leaves_numpy_unloaded():
    # neither the import nor the exact CLI paths load numpy: only the chain does
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "import sys, radonmono, radonmono.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
    code = (
        "import os, sys\nfrom radonmono.cli import main\n"
        "assert main(sys.argv[1:] + ['--output', os.devnull]) == 0\nprint('numpy' in sys.modules)"
    )
    for argv in (["compute"], ["group", "--exact"]):
        cmd = [sys.executable, "-c", code, *argv, "--input", "fixture:zariski_c"]
        out = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False", argv


# -- inverses travel with the generators --------------------------------------------


def test_engines_invert_no_matrix(zariski_c_result, monkeypatch):
    group = MatrixGroupGen.from_matrices(list(zariski_c_result.gtilde))
    group.inverses  # formed on first read, which the modular engine needs
    calls = []
    inverse = Matrix.inverse

    def counting_inverse(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    assert derived_series(closure(group)) == [648, 216, 54, 27, 3, 1]
    assert modular_group_analysis(group, [7, 13])["derived_series"] == [648, 216, 54, 27, 3, 1]
    assert calls == []


def test_exact_path_inverts_no_matrix(zariski_c_result, monkeypatch):
    calls = []
    inverse = Matrix.inverse

    def counting_inverse(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    group = MatrixGroupGen.from_matrices(list(zariski_c_result.gtilde))
    enum = closure(group)
    assert derived_series(enum) == [648, 216, 54, 27, 3, 1]
    summary = invariant_decomposition(group)
    assert (summary["moving_dim"], summary["moving_endomorphism_dim"]) == (3, 1)
    assert calls == []
    inverses = group.inverses  # the modular path reads them: formed once, on first read
    assert calls == list(group.generators)
    assert group.inverses is inverses and len(calls) == len(group.generators)
    assert all((g * h).is_identity() for g, h in zip(group.generators, inverses))


@pytest.mark.parametrize("spec", [GF7, Q, Q6], ids=lambda s: s.label())
def test_singular_generator_is_refused_on_both_paths(spec):
    # full rank but for one generator, which is not zero
    gens = [Matrix.identity(spec, 2), Matrix.from_ints(spec, [[1, 2], [2, 4]])]
    with pytest.raises(NonInvertibleGenerator, match="generator is singular"):
        closure(gens)
    primes = [spec.p] if spec.kind == "prime" else [7, 13]
    with pytest.raises(NonInvertibleGenerator, match="generator is singular"):
        modular_group_analysis(gens, primes)


@pytest.mark.parametrize("spec", [Q, Q6], ids=lambda s: s.label())
def test_generator_singular_mod_p_is_accepted(spec, monkeypatch):
    # diag(1, p) at the prime the rank bound picks (3 over Q, 7 over Q(zeta_6)) is singular
    # mod p but invertible over the field: only it is eliminated exactly, and it is kept
    from radonmono import linalg

    p = 3 if spec == Q else 7
    gens = [permutation_matrix(spec, (1, 0)), Matrix.diagonal(spec, [spec.one(), spec.from_int(p)])]
    eliminated = []
    echelon_init = linalg._Echelon.__init__

    def recording_init(self, rows=()):
        rows = list(rows)
        eliminated.append(rows)
        echelon_init(self, rows)

    monkeypatch.setattr(linalg._Echelon, "__init__", recording_init)
    group = MatrixGroupGen.from_matrices(gens)
    assert group.generators == tuple(gens) and group._bounds.p == p
    assert eliminated == [list(gens[1].entries)]


def _record_subgroups(monkeypatch, engine):
    made = []
    trivial = engine.trivial

    def recording_trivial(self):
        made.append(trivial(self))
        return made[-1]

    monkeypatch.setattr(engine, "trivial", recording_trivial)
    return made


def test_stored_inverses_after_derived_series(monkeypatch):
    import numpy as np

    from radonmono.chain import StabilizerChain
    from radonmono.group import _derived_series, _Enumeration

    group = MatrixGroupGen.from_matrices(s4_generators())
    enum = closure(group)
    subgroups = _record_subgroups(monkeypatch, _Enumeration)
    assert _derived_series(enum) == [24, 12, 4, 1]
    for sub in [enum, *subgroups]:
        assert sub.order == 1 or sub.gens
        # each stored map and its inverse: permutations of the whole row table
        # that undo each other, whose identity rows make exact matrices with
        # product the identity
        rows = sub.rows
        every_row = list(range(len(rows.keys)))
        for g, g_inv in zip(sub.gens, sub.inverses, strict=True):
            assert sorted(g) == sorted(g_inv) == every_row
            assert [g_inv[r] for r in g] == [g[r] for r in g_inv] == every_row
            as_matrix = [rows.matrix([a[r] for r in rows.identity]) for a in (g, g_inv)]
            assert (as_matrix[0] * as_matrix[1]).is_identity()

    p = 5
    pairs = zip(
        [reduce_matrix_modp(g, p) for g in group.generators],
        [reduce_matrix_modp(g, p) for g in group.inverses],
    )
    chain = StabilizerChain(p, group.degree, 10**4, pairs)
    subgroups = _record_subgroups(monkeypatch, StabilizerChain)
    assert _derived_series(chain) == [24, 12, 4, 1]

    def assert_inverse(mats, invs):
        assert len(mats) == len(invs)
        for g, g_inv in zip(mats, invs):
            assert (g @ g_inv % p == np.eye(group.degree, dtype=np.int64)).all()

    for sub in [chain, *subgroups]:
        assert sub.order == 1 or sub.gens
        assert_inverse(sub.gens, sub.inverses)
        for level in sub.levels:
            assert_inverse(level.gens, level.inverses)
            assert_inverse(level.u, level.u_inv)


# -- membership questions in one batch, each Schreier generator sifted once ---------


def _chain_state(chain):
    levels = [(level.base, list(level.points.items()), level.u.tolist(), level.u_inv.tolist()) for level in chain.levels]
    return chain.order, [g.tolist() for g in chain.gens], [g.tolist() for g in chain.inverses], levels


def _chain_words(pairs):
    # commutators first, then the generators and their squares: some words are members
    commutators = [
        [(a_inv, a), (b_inv, b), (a, a_inv), (b, b_inv)] for (a, a_inv), (b, b_inv) in itertools.combinations(pairs, 2)
    ]
    return commutators + [[pair] for pair in pairs] + [[pair, pair] for pair in pairs]


@pytest.mark.parametrize("case", ["s4_mod5", "zariski_c_mod7"])
def test_chain_extend_matches_one_word_at_a_time(case, zariski_c_result):
    from radonmono.chain import StabilizerChain

    if case == "s4_mod5":
        group, p = MatrixGroupGen.from_matrices(s4_generators()), 5
    else:
        group, p = MatrixGroupGen.from_matrices(list(zariski_c_result.gtilde)), 7
    pairs = list(zip(*([reduce_matrix_modp(g, p) for g in mats] for mats in (group.generators, group.inverses))))
    words = _chain_words(pairs)
    together, apart = (StabilizerChain(p, group.degree, DEFAULT_CAP) for _ in range(2))
    together.extend(words)
    for word in words:
        apart.extend([word])
    assert _chain_state(together) == _chain_state(apart)
    assert together.order == (24 if case == "s4_mod5" else 648)


def test_enumeration_extend_matches_one_word_at_a_time():
    # words in the row permutations of a complete S4, whose table is closed
    group = closure(s4_generators(GF7))
    rows = list(group.rows.keys)
    a, b = zip(group.gens, group.inverses, strict=True)
    words = [[a, b], [b, a], [a], [a, a], [b], [a, b, a]]
    states = []
    for together in (True, False):
        enum = group.trivial()
        if together:
            enum.extend(words)
        else:
            for word in words:
                enum.extend([word])
        states.append((enum.order, enum.members, enum.gens, enum.inverses))
    assert states[0] == states[1]
    assert states[0][0] == 24
    assert group.rows.keys == rows


def test_a_member_generator_costs_no_product(monkeypatch):
    # g * g lies in the group g generates, and its own rows say so; g, of
    # order 3, meets the row -e_0 - e_1, so its own closure takes a product
    g = Matrix.from_ints(Q, [[0, 1], [-1, -1]])
    g2 = g * g
    products = []
    mul = Matrix.__mul__

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    alone = closure([g])
    counted = len(products)
    with_square = closure([g, g2])
    assert counted > 0 and len(products) == 2 * counted
    assert alone.order == with_square.order == 3 and with_square.matrices == [g]


def test_each_schreier_generator_is_sifted_once(monkeypatch, zariski_cprime_result):
    from radonmono import chain
    from radonmono.group import _modp_entry

    levels, counts = [], {"sifted": 0, "failed": 0}
    init, sift = chain._Level.__init__, chain.StabilizerChain._sift

    def recording_init(self, *args):
        init(self, *args)
        levels.append(self)

    def counting_sift(self, h, start, h_inv=None):
        residue, residue_inv, drop = sift(self, h, start, h_inv)
        if start > 0 and h_inv is None:  # a batch of Schreier generators
            counts["sifted"] += len(h)
            counts["failed"] += int(self._nontrivial(residue, drop).sum())
        return residue, residue_inv, drop

    monkeypatch.setattr(chain._Level, "__init__", recording_init)
    monkeypatch.setattr(chain.StabilizerChain, "_sift", counting_sift)
    group = MatrixGroupGen.from_matrices(list(zariski_cprime_result.gtilde))
    entry = _modp_entry(group, 7, DEFAULT_CAP, with_derived=True)
    assert (entry["order"], entry["derived_series"]) == (155_520, [155_520, 51_840, 51_840])
    # a (level, generator, point) pair is sifted once, and again only after it failed
    pairs = sum(len(level.gens) * len(level.points) for level in levels)
    assert 0 < counts["sifted"] <= pairs + counts["failed"]


def test_scalar_exponents_sift_once(monkeypatch):
    from radonmono.chain import StabilizerChain
    from radonmono.group import _modp_scalar_exponents

    # z^2 and a swap: the scalars z^0, z^2 and z^4 are members, the odd powers are not
    z2 = Q6.gen() ** 2
    group = MatrixGroupGen.from_matrices([scalar_matrix(Q6, z2, 2), permutation_matrix(Q6, (1, 0))])
    p, root = 7, root_of_unity_modp(6, 7)
    pairs = zip(*([reduce_matrix_modp(g, p, root) for g in mats] for mats in (group.generators, group.inverses)))
    chain = StabilizerChain(p, group.degree, DEFAULT_CAP, pairs)
    calls = []
    sift = StabilizerChain._sift

    def counting_sift(self, *args):
        calls.append(len(args[0]))
        return sift(self, *args)

    monkeypatch.setattr(StabilizerChain, "_sift", counting_sift)
    exponents = _modp_scalar_exponents(chain, group.spec, root)
    assert calls == [6]
    monkeypatch.undo()
    one_by_one = [k for k in range(6) if chain.contains((chain.ident * pow(root, k, p))[None])[0]]
    assert exponents == one_by_one == [0, 2, 4]


def test_spin_stops_multiplying_at_full_rank(monkeypatch):
    # e_0 and its image under the swap span V, so the other generators are never applied
    swap = permutation_matrix(Q, (1, 0))
    gens = [swap, scalar_matrix(Q, Q.from_int(2), 2), scalar_matrix(Q, Q.from_int(3), 2)]
    products = []
    mul = Matrix.__mul__

    def counting_mul(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    assert spin(gens, [Q.one(), Q.zero()]).dim == 2
    assert products == [swap]


def test_prime_dividing_an_inverse_denominator_is_refused():
    # -z - 2 has norm 7, so it has infinite order and its inverse is (z - 3)/7;
    # mod 7 at z = 3 it reduces to 2, of order 3, which is no group order
    z = Q6.gen()
    gen = Matrix.from_rows(Q6, [[-z - Q6.from_int(2)]])
    with pytest.raises(NonInvertibleGenerator):
        modular_group_analysis([gen], [7, 13])
    (inv,) = MatrixGroupGen.from_matrices([gen]).inverses
    assert inv.entries[0][0] == (z - Q6.from_int(3)) / Q6.from_int(7)
    assert default_modular_primes([gen]) == [13, 19]


def test_default_primes_skip_generator_denominators():
    # S3 as permutation matrices conjugated by diag(1, 1, 3): the 3-cycle has entries 3 and 1/3
    conj = Matrix.diagonal(Q, [Q.one(), Q.one(), Q.from_int(3)])
    gens = [conj.inverse() * permutation_matrix(Q, perm) * conj for perm in ((1, 0, 2), (1, 2, 0))]
    with pytest.raises(BadPrime):
        modular_group_analysis(gens, [3, 5])
    primes = default_modular_primes(gens)
    assert primes == [5, 7]
    analysis = modular_group_analysis(gens, primes)
    assert analysis["order"] == 6 and analysis["derived_series"] == [6, 3, 1]


# -- spinning and the decomposition stop when they know ------------------------------


def full_spin(gens, rows):
    """The smallest generator-stable subspace containing the rows: breadth-first to the end."""
    spec, d = gens[0].spec, gens[0].rows
    found = list(Subspace.from_rows(spec, d, rows).basis.entries)
    queue = list(found)
    while queue:
        vec = queue.pop()
        for g in gens:
            img = [sum((a * b for a, b in zip(vec, col)), spec.zero()) for col in zip(*g.entries)]
            if not Subspace.from_rows(spec, d, found).contains_vector(img):
                found.append(img)
                queue.append(img)
    return Subspace.from_rows(spec, d, found)


def decomposition_by_restriction(gens):
    """invariant_decomposition with the moving space always restricted to and spun in its own coordinates."""
    group = MatrixGroupGen.from_matrices(gens)
    d, spec = group.degree, group.spec
    fixed, moving = fixed_subspace(group), moving_subspace(group)
    sub = restricted_tuple(group, moving) if moving.dim else None
    total = Subspace.from_rows(spec, d, fixed.basis.entries + moving.basis.entries)
    return {
        "standard_seed_spin_dims": [full_spin(group.generators, [s]).dim for s in Matrix.identity(spec, d).entries],
        "fixed_dim": fixed.dim,
        "moving_dim": moving.dim,
        "decomposes": total.dim == d == fixed.dim + moving.dim,
        "moving_irreducible_by_spinning": sub
        and all(full_spin(sub, [s]).dim == moving.dim for s in Matrix.identity(spec, moving.dim).entries),
        "moving_endomorphism_dim": sub and intertwiner_space(sub, sub).dim,
    }


def conjugated(gens, spec, seed):
    """P^-1 g P for a seeded invertible P; the invariant subspaces move from U to U*P."""
    rng = random.Random(seed)
    d = gens[0].rows
    while True:
        p = Matrix.from_ints(spec, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        try:
            p_inv = p.inverse()
            break
        except Singular:
            continue
    return [p_inv * g * p for g in gens], p


def root_of_unity(spec):
    """zeta_6 in Q(zeta_6), 3 (of order 6) in GF(7), and -1 in Q."""
    if spec.kind == "cyclotomic":
        return spec.gen()
    return spec.from_int(3 if spec.kind == "prime" else -1)


def two_plus_two(spec=Q6, seed=3):
    """Two 2-dimensional summands of groups made from a root of unity z, mixed by a generic base change."""
    z, one, zero = root_of_unity(spec), spec.one(), spec.zero()
    a = Matrix.from_rows(
        spec, [[z, zero, zero, zero], [zero, one, zero, zero], [zero, zero, zero, one], [zero, zero, one, zero]]
    )
    b = Matrix.from_rows(
        spec, [[zero, one, zero, zero], [one, zero, zero, zero], [zero, zero, z, zero], [zero, zero, zero, z**2]]
    )
    return conjugated([a, b], spec, seed)


def reflections_with_fixed_line(spec=Q6, seed=5):
    """Two pseudo-reflections I + a^T b of determinant z, a root of unity; both fix the row vector e_3, conjugated."""
    z, one, zero = root_of_unity(spec), spec.one(), spec.zero()

    def pseudo_reflection(a, b):
        return Matrix.from_rows(
            spec, [[(one if i == j else zero) + a[i] * b[j] for j in range(3)] for i in range(3)]
        )

    r1 = pseudo_reflection([one, zero, zero], [z - 1, one, one])
    r2 = pseudo_reflection([zero, one, zero], [one, z - 1, zero])
    return conjugated([r1, r2], spec, seed)


@pytest.mark.parametrize("make", [two_plus_two, reflections_with_fixed_line])
def test_spin_equals_full_breadth_first_search(make):
    gens, p = make()
    spec, d = gens[0].spec, gens[0].rows
    # the standard seeds, and the rows of P, which lie in the summands or on the fixed line:
    # spun from those, the search cannot stop early
    seeds = list(Matrix.identity(spec, d).entries) + list(p.entries)
    dims = set()
    for seed in seeds:
        got = spin(gens, seed)
        assert got == full_spin(gens, [seed])
        dims.add(got.dim)
    assert d in dims and len(dims) > 1
    for k in range(len(seeds) - 1):
        pair = Subspace.from_rows(spec, d, seeds[k : k + 2])
        assert spin_subspace(gens, pair) == full_spin(gens, pair.basis.entries)


# n = 1, r = 2, g = (z, z^2) over Q(zeta_3): dim W = 0, so the output tuple is two 0 x 0 matrices
ZERO_W_DOC = {
    "field": {"kind": "cyclotomic", "m": 3},
    "n": 1,
    "r": 2,
    "matrices": [[["z"]], [["z^2"]]],
    "braids": ["b1^2", "b1"],
}


@pytest.mark.parametrize(
    "make",
    [
        lambda: two_plus_two()[0],
        lambda: reflections_with_fixed_line()[0],
        lambda: [Matrix.from_ints(Q6, [[0, 1], [1, 0]])],
        lambda: [Matrix.from_ints(GF7, [[0, -1], [1, -1]]), Matrix.from_ints(GF7, [[0, 1], [1, 0]])],
        lambda: [scalar_matrix(Q6, Q6.gen(), 3)],
        lambda: list(radon_transform(parse_fundamental_data(ZERO_W_DOC)).gtilde),
        # bounds mod p that are not extremal at the prime the decomposition picks (3 over Q,
        # 7 over Q(zeta_6)): a generator = 1 mod 3 that is not 1 (fixed_p 1, moving_p 1, End_p 2) ...
        lambda: [Matrix.diagonal(Q, [Q.one(), Q.from_int(4)]), permutation_matrix(Q, (1, 0))],
        # ... the non-semisimple shear (fixed 1, moving 1, no decomposition) ...
        lambda: [Matrix.from_ints(Q, [[1, 1], [0, 1]])],
        # ... a fixed line next to a moving plane that is two lines (no restricted seed spins to it) ...
        lambda: [Matrix.diagonal(GF7, [GF7.from_int(1), GF7.from_int(3), GF7.from_int(5)])],
        # ... End 2, and a fixed line with a moving plane, over three fields
        *(lambda spec=spec: two_plus_two(spec, seed=11)[0] for spec in (GF7, Q, Q6)),
        *(lambda spec=spec: reflections_with_fixed_line(spec, seed=13)[0] for spec in (GF7, Q, Q6)),
    ],
    ids=[
        "two_plus_two",
        "reflections_with_fixed_line",
        "swap",
        "s3_gf7",
        "scalar",
        "zero_module",
        "one_mod_p_next_to_swap",
        "shear",
        "fixed_line_next_to_two_lines",
        *(f"two_plus_two_seeded_{s.label()}" for s in (GF7, Q, Q6)),
        *(f"reflections_with_fixed_line_seeded_{s.label()}" for s in (GF7, Q, Q6)),
    ],
)
def test_decomposition_with_and_without_the_moving_space_shortcut(make):
    gens = make()
    deco = invariant_decomposition(gens)
    assert deco == decomposition_by_restriction(gens)


def test_bounds_settle_zariski_cprime_without_exact_elimination(zariski_cprime_result, monkeypatch):
    # every bound is extremal on zariski_cprime's tuple; End 2 on the 2 + 2 module is not
    from radonmono import group as group_module
    from radonmono import linalg

    reducible = two_plus_two()[0]
    calls = []

    def counting(name, function):
        def counted(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return counted

    monkeypatch.setattr(linalg._Echelon, "add", counting("_Echelon.add", linalg._Echelon.add))
    monkeypatch.setattr(group_module, "_spin", counting("_spin", group_module._spin))
    monkeypatch.setattr(group_module, "intertwiner_space", counting("intertwiner_space", intertwiner_space))
    group = MatrixGroupGen.from_matrices(list(zariski_cprime_result.gtilde))
    assert invariant_decomposition(group) == {
        "standard_seed_spin_dims": [4, 4, 4, 4],
        "fixed_dim": 0,
        "moving_dim": 4,
        "decomposes": True,
        "moving_irreducible_by_spinning": True,
        "moving_endomorphism_dim": 1,
    }
    assert calls == []
    assert invariant_decomposition(reducible)["moving_endomorphism_dim"] == 2
    assert "intertwiner_space" in calls


def test_decomposition_shortcut_is_taken_and_skipped():
    # moving = V on the 2 + 2 module, whose standard seeds all spin to V although it is
    # reducible; moving < V with a fixed line
    reducible = invariant_decomposition(two_plus_two()[0])
    assert reducible["moving_dim"] == 4 and reducible["moving_irreducible_by_spinning"] is True
    assert reducible["moving_endomorphism_dim"] == 2
    reflections = invariant_decomposition(reflections_with_fixed_line()[0])
    assert reflections["fixed_dim"] == 1 and reflections["moving_dim"] == 2 and reflections["decomposes"]


# -- the exact fixed and moving spaces bound the seeds, the sum and the restriction ------

EXACT_ROUTINES = ("spin", "_spin", "subspace_sum", "restricted_tuple", "intertwiner_space")


def _counting_exact_routines(monkeypatch):
    from radonmono import group as group_module

    calls = dict.fromkeys(EXACT_ROUTINES, 0)
    for name in EXACT_ROUTINES:
        function = getattr(group_module, name)

        def counted(*args, _name=name, _function=function, **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(group_module, name, counted)
    return calls


def conjugated_by(gens, rows):
    """P^-1 g P for the given P; an invariant subspace U of g becomes U*P."""
    p = Matrix.from_ints(gens[0].spec, rows)
    return [p.inverse() * g * p for g in gens]


RULE_CASES = {
    # I + N on Q^4 with e1 -> e2 -> e3 -> 0 and e4 -> 0: F = <e3, e4> meets M = <e2, e3>, and
    # dim F + dim M = 4; e1 spins to <e1> + M, e2 (in M) to M
    "unipotent_q4": (
        lambda: [Matrix.from_ints(Q, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])],
        {"_spin": 2, "subspace_sum": 1, "restricted_tuple": 1, "intertwiner_space": 1},
    ),
    # F = <e1> and M = <(1, 3)> span Q^2, but both reduce to <e1> at the bound prime 3
    "sum_drops_rank_mod_3": (lambda: [Matrix.from_ints(Q, [[1, 0], [1, 4]])], {"_spin": 1, "subspace_sum": 1}),
    # M = <(1, 1/3)>: its basis does not reduce at 3, so the sum and the restriction are exact
    "moving_basis_not_3_integral": (
        lambda: [Matrix.from_ints(Q, [[4, 1], [0, 1]])],
        {"_spin": 1, "subspace_sum": 1, "restricted_tuple": 1},
    ),
    # e1 = f - l1 off the moving plane of two lines spins to a plane, below dim M + 1; the
    # seeds on the lines spin below dim M
    "seed_below_its_bound": (
        lambda: conjugated_by([Matrix.diagonal(GF7, [GF7.from_int(x) for x in (1, 3, 5)])], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        {"spin": 3, "_spin": 5, "restricted_tuple": 1, "intertwiner_space": 1},
    ),
    # e1 = f - l spins to Q^2 = <e1> + M, but diag(1, 4) is 1 mod 3, so its bound there is 1
    "seed_bound_low_mod_3": (
        lambda: conjugated_by([Matrix.diagonal(Q, [Q.one(), Q.from_int(4)])], [[1, 1], [0, 1]]),
        {"spin": 1, "_spin": 2},
    ),
}


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_decomposition_rules_fire_and_fall_back(monkeypatch, name):
    make, exact_calls = RULE_CASES[name]
    gens = make()
    expected = decomposition_by_restriction(gens)
    calls = _counting_exact_routines(monkeypatch)
    assert invariant_decomposition(gens) == expected
    assert calls == {**dict.fromkeys(EXACT_ROUTINES, 0), **exact_calls}


def test_decomposition_rule_cases_cover_each_value():
    got = {name: invariant_decomposition(make()) for name, (make, _) in RULE_CASES.items()}
    assert got["unipotent_q4"] == {
        "standard_seed_spin_dims": [3, 2, 1, 1], "fixed_dim": 2, "moving_dim": 2, "decomposes": False,
        "moving_irreducible_by_spinning": False, "moving_endomorphism_dim": 2,
    }
    assert got["sum_drops_rank_mod_3"]["decomposes"] and got["moving_basis_not_3_integral"]["decomposes"]
    assert got["seed_below_its_bound"]["standard_seed_spin_dims"] == [2, 1, 1]
    assert got["seed_bound_low_mod_3"]["standard_seed_spin_dims"] == [2, 1]


def zc24_3_7_tuple():
    """zariski_c's output tuple on its braid words 3 and 7: a fixed plane beside a moving plane."""
    return list(radon_transform(load_fundamental_data(os.path.join(DATA, "zc24_3_7.json"))).gtilde)


@pytest.mark.parametrize("name", [*sorted(RULE_CASES), "zc24_3_7"])
def test_restricted_bounds_reduce_the_restricted_tuple(name):
    group = MatrixGroupGen.from_matrices(zc24_3_7_tuple() if name == "zc24_3_7" else RULE_CASES[name][0]())
    bounds, moving = group._bounds, moving_subspace(group)
    assert 0 < moving.dim < group.degree
    reduced = bounds.restricted(moving)
    if name == "moving_basis_not_3_integral":
        assert bounds.p == 3 and reduced is None
    else:
        exact = restricted_tuple(group, moving)
        assert reduced.mats == [[[reduce_element_modp(e, bounds.p, bounds.root) for e in row] for row in g.entries] for g in exact]


def test_fixed_and_moving_planes_settle_zc24_3_7(monkeypatch):
    # only M is spun exactly
    group = MatrixGroupGen.from_matrices(zc24_3_7_tuple())
    expected = decomposition_by_restriction(list(group.generators))
    calls = _counting_exact_routines(monkeypatch)
    assert invariant_decomposition(group) == expected == {
        "standard_seed_spin_dims": [1, 3, 3, 3], "fixed_dim": 2, "moving_dim": 2, "decomposes": True,
        "moving_irreducible_by_spinning": True, "moving_endomorphism_dim": 1,
    }
    assert calls == {**dict.fromkeys(EXACT_ROUTINES, 0), "_spin": 1}


# -- the exact engine against a plain breadth-first closure ---------------------------


def oracle_closure(gens):
    """Every element of the generated group as an exact matrix: breadth-first by Matrix products."""
    ident = Matrix.identity(gens[0].spec, gens[0].rows)
    seen, layer = {ident}, [ident]
    while layer:
        found = []
        for el in layer:
            for g in gens:
                prod = el * g
                if prod not in seen:
                    seen.add(prod)
                    found.append(prod)
        layer = found
    return seen


def oracle_derived_series(gens):
    """Orders of the derived series; each derived subgroup is closed from every commutator."""
    group = oracle_closure(gens)
    orders = [len(group)]
    while orders[-1] != 1:
        inverse = {a: a.inverse() for a in group}
        group = oracle_closure(list({inverse[a] * inverse[b] * a * b for a in group for b in group}))
        orders.append(len(group))
        if orders[-1] == orders[-2]:
            break
    return orders


def _oracle_groups():
    gf5, z = FieldSpec.prime(5), Q6.gen()
    zero, one = Q6.zero(), Q6.one()
    monomial = [Matrix.from_rows(Q6, [[z, zero], [zero, one]]), permutation_matrix(Q6, (1, 0))]
    conj = Matrix.from_rows(Q6, [[one, one], [z, one]])
    return {
        # GL(2, 3): a transvection and an element of order 8
        "gf3-gl2": [Matrix.from_ints(FieldSpec.prime(3), rows) for rows in ([[1, 1], [0, 1]], [[0, 1], [1, 1]])],
        # a diagonal and a monomial generator over GF(5)
        "gf5-monomial": [Matrix.from_ints(gf5, rows) for rows in ([[2, 0], [0, 1]], [[0, 1], [4, 0]])],
        "q-s4": s4_generators(),
        # the Weyl group of B3: signed 3x3 permutation matrices
        "q-b3": [permutation_matrix(Q, (1, 0, 2)), permutation_matrix(Q, (1, 2, 0)), Matrix.diagonal(Q, [Q.one(), Q.one(), Q.from_int(-1)])],
        # (C6 x C6) : C2 in GL(2, Q(zeta_6)), and the same group conjugated to dense entries
        "qz6-monomial": monomial,
        "qz6-dense": [conj.inverse() * g * conj for g in monomial],
    }


@pytest.mark.parametrize("name", sorted(_oracle_groups()))
def test_exact_engine_matches_breadth_first_oracle(name):
    gens = _oracle_groups()[name]
    elements = oracle_closure(gens)
    enum = closure(gens, cap=len(elements))
    assert enum.order == len(elements)
    assert enum.elements == elements
    assert all(g in enum for g in elements) and Matrix.identity(gens[0].spec, gens[0].rows) in enum
    series = oracle_derived_series(gens)
    assert derived_series(enum) == series
    assert derived_series(gens, cap=len(elements)) == series
    with pytest.raises(CapExceeded):
        closure(gens, cap=len(elements) - 1)
    with pytest.raises(CapExceeded):
        derived_series(gens, cap=len(elements) - 1)


# -- the decomposition on the generators that enlarged the enumeration ----------------

ZETA6 = ("1", "z", "z - 1", "-1", "-z", "1 - z")


def _exact_group_inputs(four_lines_doc):
    """Every finite-group input of the exact_group benchmark, and zariski_c itself."""
    with open(fixture_path("zariski_c")) as handle:
        zariski_c = json.load(handle)
    docs = {"zariski_c": zariski_c}
    classes = {"fl72": [(1, 1, 1, 3), (3, 5, 5, 5)], "fl36": [(1, 1, 2, 2), (4, 4, 5, 5)]}
    for cls, bases in classes.items():
        for exps in sorted({p for base in bases for p in itertools.permutations(base)}):
            docs[f"{cls}-{''.join(map(str, exps))}"] = {
                **four_lines_doc,
                "field": {"kind": "cyclotomic", "m": 6},
                "matrices": [[[ZETA6[e]]] for e in exps],
            }
    pairs = [(1, 3), (1, 5), (1, 6), (1, 7), (3, 6), (3, 7), (3, 8), (5, 6), (5, 7), (5, 8), (6, 8), (7, 8)]
    for i, j in pairs:
        docs[f"zc24-{i}-{j}"] = {**zariski_c, "braids": [zariski_c["braids"][i], zariski_c["braids"][j]]}
    return docs


def test_decomposition_on_the_enlarging_generators(four_lines_doc):
    orders = {}
    for name, doc in _exact_group_inputs(four_lines_doc).items():
        group = MatrixGroupGen.from_matrices(radon_transform(parse_fundamental_data(doc)).gtilde)
        enum = closure(group)
        kept = enum.matrices
        assert 0 < len(kept) <= len(group.generators), name
        assert invariant_decomposition(kept) == invariant_decomposition(group), name
        orders.setdefault(name.split("-")[0], set()).add(enum.order)
    assert orders == {"zariski_c": {648}, "fl72": {72}, "fl36": {36}, "zc24": {24}}


# -- no derived series after the primes disagree --------------------------------------


def _counting_derived_series(monkeypatch):
    from radonmono import group as group_mod

    built, derived = [], group_mod._derived_series
    monkeypatch.setattr(group_mod, "_derived_series", lambda chain: built.append(chain.p) or derived(chain))
    return built


def test_disagreeing_orders_build_no_derived_series(monkeypatch, four_lines_result):
    built = _counting_derived_series(monkeypatch)
    with pytest.raises(OrderDisagreement, match=r"^primes disagree on order: 24 vs 120$"):
        modular_group_analysis(list(four_lines_result.gtilde), [3, 5])
    assert built == []


def test_errors_keep_their_order_across_three_primes(monkeypatch):
    built = _counting_derived_series(monkeypatch)
    shear = Matrix.from_ints(Q, [[1, 1], [0, 1]])
    scale = Matrix.diagonal(Q, [Q.from_int(7), Q.from_int(1) / Q.from_int(7)])
    # every prime's chain comes before any comparison: the bad last prime is reported first
    with pytest.raises(BadPrime, match=r"^denominator of 1/7 vanishes mod 7$"):
        modular_group_analysis([shear, scale], [3, 5, 7])
    with pytest.raises(OrderDisagreement, match=r"^primes disagree on order: 3 vs 20$"):
        modular_group_analysis([shear, scale], [3, 5, 11])
    assert built == []


def test_agreeing_primes_compare_every_derived_series(monkeypatch, zariski_c_result):
    built = _counting_derived_series(monkeypatch)
    result = modular_group_analysis(list(zariski_c_result.gtilde), [7, 13, 19])
    assert result == {
        "primes": [7, 13, 19],
        "order": 648,
        "scalar_exponents": [0],
        "derived_series": [648, 216, 54, 27, 3, 1],
        "solvable": True,
    }
    assert built == [7, 13, 19]
    built.clear()
    assert modular_group_analysis(list(zariski_c_result.gtilde), [7, 13], with_derived=False)["order"] == 648
    assert built == []


def test_a_cyclic_level_sifts_its_wrap_around_schreier_generator():
    # e_0 has an orbit of 2 under s, and the wrap-around Schreier generator s^2 = diag(1, 1, 2) has order 3
    s = Matrix.from_ints(GF7, [[0, 1, 0], [1, 0, 0], [0, 0, 3]])
    assert closure([s]).order == modular_group_analysis([s], [7], with_derived=False)["order"] == 6
