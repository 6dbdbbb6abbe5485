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
    MatrixGroupGen,
    closure,
    contains_scalar,
    default_modular_primes,
    derived_series,
    fixed_subspace,
    invariant_decomposition,
    modular_group_analysis,
    moving_subspace,
    reduce_matrix_modp,
    restricted_tuple,
    root_of_unity_modp,
    spin,
    spin_subspace,
)
from radonmono.linalg import Matrix, Subspace, intertwiner_space
from radonmono.radon import parse_fundamental_data, radon_transform

Q6 = FieldSpec.cyclotomic(6)
GF7 = FieldSpec.prime(7)


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
        # each stored map and its inverse: exact matrices whose product is the
        # identity, and row permutations that undo each other
        rows = sub.rows
        for g, g_inv in zip(sub.gens, sub.inverses, strict=True):
            forward, backward = (a.cover(rows, len(rows.keys)) for a in (g, g_inv))
            assert [backward[r] for r in forward] == list(range(len(rows.keys)))
            as_matrix = [rows.matrix([a.images[r] for r in rows.identity]) for a in (g, g_inv)]
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


def two_plus_two():
    """Two 2-dimensional summands of order-6 groups over Q(zeta_6), mixed by a generic base change."""
    z, one, zero = Q6.gen(), Q6.one(), Q6.zero()
    a = Matrix.from_rows(
        Q6, [[z, zero, zero, zero], [zero, one, zero, zero], [zero, zero, zero, one], [zero, zero, one, zero]]
    )
    b = Matrix.from_rows(
        Q6, [[zero, one, zero, zero], [one, zero, zero, zero], [zero, zero, z, zero], [zero, zero, zero, z**2]]
    )
    return conjugated([a, b], Q6, 3)


def reflections_with_fixed_line():
    """Two pseudo-reflections I + a^T b of order 6 over Q(zeta_6); both fix the row vector e_3, conjugated."""
    z, one, zero = Q6.gen(), Q6.one(), Q6.zero()

    def pseudo_reflection(a, b):
        return Matrix.from_rows(
            Q6, [[(one if i == j else zero) + a[i] * b[j] for j in range(3)] for i in range(3)]
        )

    r1 = pseudo_reflection([one, zero, zero], [z - 1, one, one])
    r2 = pseudo_reflection([zero, one, zero], [one, z - 1, zero])
    return conjugated([r1, r2], Q6, 5)


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
    ],
    ids=["two_plus_two", "reflections_with_fixed_line", "swap", "s3_gf7", "scalar", "zero_module"],
)
def test_decomposition_with_and_without_the_moving_space_shortcut(make):
    gens = make()
    deco = invariant_decomposition(gens)
    assert deco == decomposition_by_restriction(gens)


def test_decomposition_shortcut_is_taken_and_skipped():
    # moving = V on the 2 + 2 module, whose standard seeds all spin to V although it is
    # reducible; moving < V with a fixed line
    reducible = invariant_decomposition(two_plus_two()[0])
    assert reducible["moving_dim"] == 4 and reducible["moving_irreducible_by_spinning"] is True
    assert reducible["moving_endomorphism_dim"] == 2
    reflections = invariant_decomposition(reflections_with_fixed_line()[0])
    assert reflections["fixed_dim"] == 1 and reflections["moving_dim"] == 2 and reflections["decomposes"]


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
        kept = [g.matrix for g in enum.gens]
        assert 0 < len(kept) <= len(group.generators), name
        assert invariant_decomposition(kept) == invariant_decomposition(group), name
        orders.setdefault(name.split("-")[0], set()).add(enum.order)
    assert orders == {"zariski_c": {648}, "fl72": {72}, "fl36": {36}, "zc24": {24}}
