"""An independent oracle for the braid action: Artin's automorphisms of F_r
and Fox calculus.

Letter i acts on the free group F_r = <x_1, ..., x_r> by Artin's
automorphism x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}; letter -i
by its inverse x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i.  A word acts by
the composite Phi of its letters' automorphisms, kept as freely reduced
image words.  The moved tuple is rho o Phi with rho(x_j) = g_j.  A row of
V^r is the crossed homomorphism delta with delta(x_j) = block j, and the
moved row is delta o Phi, evaluated on each image word by the rule
delta(ab) = delta(a) rho(b) + delta(b): the Fox derivatives of the image
words.  No braid formula of radonmono is used here, only its field and
matrix arithmetic.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from radonmono import load_fundamental_data
from radonmono.braid import act_on_rows, act_on_tuple
from radonmono.cli import fixture_path
from radonmono.errors import Singular
from radonmono.field import FieldSpec
from radonmono.linalg import Matrix

DATA = Path(__file__).parent / "data"
INPUTS = [fixture_path(name) for name in ("four_lines", "zariski_c", "zariski_cprime", "scalar_group")]
INPUTS += sorted(str(p) for p in DATA.glob("*.json"))


def _random_entry(rng, spec):
    if spec.kind == "cyclotomic":
        return spec.element([rng.randint(-3, 3) for _ in range(spec.degree)])
    return spec.from_int(rng.randint(-4, 4))


def _fraction_entry(rng, spec):
    # c/q with q in {1, 2, 3}; over GF(p) a residue of any size
    if spec.kind == "prime":
        return spec.from_int(rng.randrange(spec.p))
    return spec.element([Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(spec.degree)])


def _monomial_entry(rng, spec, signs=(0, 1, -1)):
    return rng.choice(signs) * spec.gen() ** rng.randrange(spec.m)


def _random_invertible(rng, spec, n, entry=_random_entry):
    while True:
        m = Matrix.from_rows(spec, [[entry(rng, spec) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
            return m
        except Singular:
            continue


def _reduced(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _inv(word):
    return tuple(-x for x in reversed(word))


def artin_images(r, letters):
    """Phi(x_1), ..., Phi(x_r) as reduced words in +-1..+-r, for the letters applied left to right."""
    images = [(j,) for j in range(1, r + 1)]
    for letter in letters:
        i = abs(letter) - 1
        a, b = images[i], images[i + 1]  # Phi(x_i), Phi(x_{i+1}) before the letter
        if letter > 0:
            images[i], images[i + 1] = b, _reduced(_inv(b) + a + b)
        else:
            images[i], images[i + 1] = _reduced(a + b + _inv(a)), a
    return images


def fox_value(word, g, g_inv, blocks, spec, n):
    """delta(word) for the crossed homomorphisms whose values on x_j are the rows of blocks[j - 1]."""
    acc = Matrix.zero(spec, blocks[0].rows, n)
    suffix = Matrix.identity(spec, n)  # rho of the letters after the current one
    for x in reversed(word):
        j = abs(x) - 1
        if x > 0:
            acc = acc + blocks[j] * suffix
            suffix = g[j] * suffix
        else:  # delta(x^-1) = -delta(x) rho(x)^-1
            acc = acc - blocks[j] * g_inv[j] * suffix
            suffix = g_inv[j] * suffix
    return acc


def _random_rows(rng, g, nrows=2, entry=_random_entry):
    return [[entry(rng, g[0].spec) for _ in range(g[0].rows * len(g))] for _ in range(nrows)]


def check_against_oracle(g, letters, rows):
    spec, n, r, nrows = g[0].spec, g[0].rows, len(g), len(rows)
    blocks = [Matrix.from_rows(spec, [row[n * j : n * (j + 1)] for row in rows], cols=n) for j in range(r)]
    images = artin_images(r, letters)
    g_inv = [m.inverse() for m in g]

    def rho(word):
        out = Matrix.identity(spec, n)
        for x in word:
            out = out * (g[x - 1] if x > 0 else g_inv[-x - 1])
        return out

    expected_tuple = tuple(rho(word) for word in images)
    moved = [fox_value(word, g, g_inv, blocks, spec, n) for word in images]
    expected_rows = [[e for block in moved for e in block.entries[k]] for k in range(nrows)]

    assert act_on_tuple(g, letters) == expected_tuple
    assert act_on_rows(g, letters, rows) == expected_tuple
    assert rows == expected_rows


def test_artin_images_of_the_generators():
    assert artin_images(3, [1]) == [(2,), (-2, 1, 2), (3,)]
    assert artin_images(3, [-1]) == [(1, 2, -1), (1,), (3,)]
    assert artin_images(3, [2, -2]) == [(1,), (2,), (3,)]
    # the braid relation b1 b2 b1 = b2 b1 b2 holds in Aut(F_3)
    assert artin_images(3, [1, 2, 1]) == artin_images(3, [2, 1, 2])


@pytest.mark.parametrize("path", INPUTS, ids=lambda p: Path(p).stem)
def test_action_matches_oracle_on_inputs(path):
    fd = load_fundamental_data(path)
    rng = random.Random(7)
    for word in fd.words():
        check_against_oracle(fd.g, list(word.letters), _random_rows(rng, fd.g))


SPECS = [FieldSpec.prime(101), FieldSpec.rational(), FieldSpec.cyclotomic(6)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_action_matches_oracle_on_seeded_words(spec):
    rng = random.Random(2024)
    for _ in range(12):
        n, r = rng.randint(1, 3), rng.randint(2, 5)
        g = tuple(_random_invertible(rng, spec, n) for _ in range(r))
        alphabet = [i for i in range(-(r - 1), r) if i]
        check_against_oracle(g, [rng.choice(alphabet) for _ in range(rng.randint(0, 8))], _random_rows(rng, g))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_action_matches_oracle_on_sparse_rows(spec):
    # unit vectors, and rows that are zero on the blocks the first letter
    # touches: the action leaves a row alone while both its blocks are zero
    rng = random.Random(11)
    for _ in range(8):
        n, r = rng.randint(1, 3), rng.randint(3, 5)
        g = tuple(_random_invertible(rng, spec, n) for _ in range(r))
        alphabet = [i for i in range(-(r - 1), r) if i]
        letters = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
        units = [list(row) for row in Matrix.identity(spec, n * r).entries]
        a = abs(letters[0])
        untouched = _random_rows(rng, g)
        for row in untouched:
            row[n * (a - 1) : n * (a + 1)] = [spec.zero()] * (2 * n)
        check_against_oracle(g, letters, units + untouched)


@pytest.mark.parametrize(
    "spec", [FieldSpec.rational(), FieldSpec.cyclotomic(6), FieldSpec.prime(2**61 - 1)], ids=lambda s: s.label()
)
def test_action_matches_oracle_with_denominators_and_large_residues(spec):
    # denominators in the tuple and in the rows, so that letters carry a
    # denominator and the rows are rescaled; over GF(2^61 - 1) residues of
    # full size
    rng = random.Random(61)
    for _ in range(10):
        n, r = rng.randint(1, 3), rng.randint(2, 5)
        g = tuple(_random_invertible(rng, spec, n, _fraction_entry) for _ in range(r))
        alphabet = [i for i in range(-(r - 1), r) if i]
        letters = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
        check_against_oracle(g, letters, _random_rows(rng, g, 3, _fraction_entry))


def test_action_matches_oracle_over_a_conductor_with_a_coefficient_2():
    # Phi_105 has the coefficient -2 at z^7 and z^41, so the fold meets terms
    # outside {-1, 0, 1} that no spec above has; products of monomials 0 or
    # +-z^k reach every power of z.  Upper triangular entries with monomial
    # diagonals invert through monomial inverses only, and the oracle's
    # inverses are checked first: under a wrong fold, inverses with 800-digit
    # coefficients made the action take more than a minute to fail.
    spec, rng = FieldSpec.cyclotomic(105), random.Random(105)

    def triangular():
        corner = [_monomial_entry(rng, spec, (1, -1)) for _ in range(2)]
        return Matrix.from_rows(spec, [[corner[0], _monomial_entry(rng, spec)], [spec.zero(), corner[1]]])

    for _ in range(3):
        g = (triangular(), triangular(), triangular())
        assert all(m * m.inverse() == Matrix.identity(spec, 2) for m in g)
        letters = [rng.choice((-2, -1, 1, 2)) for _ in range(6)]
        check_against_oracle(g, letters, _random_rows(rng, g, entry=_monomial_entry))
