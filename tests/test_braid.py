import random

import pytest

from radonmono import braid
from radonmono.braid import (
    MAX_LETTERS,
    BraidWord,
    Conjugate,
    Generator,
    Power,
    Product,
    act_on_tuple,
    braid_text,
    expand,
    free_reduce,
    parse_braid,
)
from radonmono.errors import InputError, ParseError, ShapeMismatch, StrandOutOfRange
from radonmono.field import FieldSpec
from radonmono.linalg import Matrix, product_of

GF7 = FieldSpec.prime(7)


def test_parse_power():
    assert parse_braid("b1^2", 4) == Power(Generator(1), 2)


def test_parse_conjugate():
    assert parse_braid("(b2^2)^b1", 4) == Conjugate(Power(Generator(2), 2), Generator(1))


def test_parse_mixed_word():
    expr = parse_braid("b3^-1 (b1 b2 b1)^2 b3", 6)
    assert expr == Product(
        (
            Power(Generator(3), -1),
            Power(Product((Generator(1), Generator(2), Generator(1))), 2),
            Generator(3),
        )
    )


def test_parse_errors():
    with pytest.raises(StrandOutOfRange):
        parse_braid("b5", 4)
    with pytest.raises(ParseError):
        parse_braid("b1^", 4)
    with pytest.raises(ParseError):
        parse_braid("(b1", 4)
    with pytest.raises(ParseError):
        parse_braid("", 4)
    with pytest.raises(ParseError):
        parse_braid("b1 )", 4)


def test_expand_examples():
    assert expand(parse_braid("(b2^2)^b1", 4), 4).letters == (-1, 2, 2, 1)
    assert expand(parse_braid("b1^-2", 4), 4).letters == (-1, -1)
    word = expand(parse_braid("b1 b2 b2^-1 b1^-1", 4), 4)
    assert free_reduce(word).letters == ()


def test_expand_bounds_the_word_length(monkeypatch):
    assert MAX_LETTERS == 100_000
    assert expand(parse_braid("(b1 b2^-1)^50000", 3), 3).letters == (1, -2) * 50_000
    assert len(expand(parse_braid("b1^99999 b2", 3), 3)) == MAX_LETTERS

    def no_letters(expr):
        raise AssertionError("letters were written")

    # refused from the parsed tree's size: no letter is written, however long the word
    monkeypatch.setattr(braid, "_expand_letters", no_letters)
    for text, length in [
        ("b1^100001", 100_001),
        ("b1^99999 b2 b1", 100_001),
        ("(b1^2)^-50001", 100_002),
        ("((b1^2)^b2)^(b2^50000)", 100_004),
        ("(b1^2)^100000", 200_000),
        ("b1^1000000000000000000000", 10**21),
    ]:
        with pytest.raises(InputError) as err:
            expand(parse_braid(text, 3), 3)
        assert str(err.value) == f"braid word expands to {length} letters, more than the 100000 allowed"


def test_free_reduce_examples():
    assert free_reduce(BraidWord(4, (1, -1))).letters == ()
    assert free_reduce(BraidWord(4, (1, 2, -2, -1))).letters == ()
    assert free_reduce(BraidWord(4, (1, 2, 1))).letters == (1, 2, 1)


def test_braid_text_round_trip():
    texts = ["b1^2", "(b2^2)^b1", "b3^-1 (b1 b2 b1)^2 b3", "b1^(b2^-1 b1)", "b2"]
    for text in texts:
        expr = parse_braid(text, 6)
        again = parse_braid(braid_text(expr), 6)
        assert expand(again, 6) == expand(expr, 6)


def _random_invertible(rng, n):
    while True:
        m = Matrix.from_ints(GF7, [[rng.randrange(7) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
            return m
        except Exception:
            continue


def _random_tuple(rng, n, r):
    mats = [_random_invertible(rng, n) for _ in range(r - 1)]
    mats.append(product_of(mats).inverse())
    return tuple(mats)


def test_action_formula():
    # (a, b, c) under the first generator becomes (b, b^-1 a b, c)
    rng = random.Random(11)
    a, b = _random_invertible(rng, 2), _random_invertible(rng, 2)
    c = (a * b).inverse()
    out = act_on_tuple((a, b, c), [1])
    assert out == (b, b.inverse() * a * b, c)


def test_action_inverse_undoes():
    rng = random.Random(23)
    g = _random_tuple(rng, 2, 4)
    word = [1, -2, 3, 3, -1]
    there = act_on_tuple(g, word)
    back = act_on_tuple(there, BraidWord(4, tuple(word)).inverse())
    assert back == g


def test_scalar_tuple_fixed_by_fixture_words(four_lines_fd):
    for omega in four_lines_fd.omegas:
        word = expand(omega, 4)
        assert act_on_tuple(four_lines_fd.g, word) == four_lines_fd.g


def test_action_concatenation_property():
    rng = random.Random(99)
    for _ in range(30):
        n, r = rng.randint(1, 3), rng.randint(3, 6)
        g = _random_tuple(rng, n, r)
        letters = [i for i in range(-(r - 1), r) if i != 0]
        w1 = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
        w2 = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
        assert act_on_tuple(act_on_tuple(g, w1), w2) == act_on_tuple(g, w1 + w2)


def test_braid_relations_of_action():
    rng = random.Random(104729)
    for _ in range(20):
        n, r = rng.randint(1, 3), rng.randint(3, 6)
        g = _random_tuple(rng, n, r)
        for i in range(1, r - 1):
            assert act_on_tuple(g, [i, i + 1, i]) == act_on_tuple(g, [i + 1, i, i + 1])
        for i in range(1, r):
            for j in range(1, r):
                if abs(i - j) > 1:
                    assert act_on_tuple(g, [i, j]) == act_on_tuple(g, [j, i])


def test_action_preserves_product():
    rng = random.Random(31)
    for _ in range(20):
        n, r = rng.randint(1, 3), rng.randint(3, 6)
        g = _random_tuple(rng, n, r)
        letters = [i for i in range(-(r - 1), r) if i != 0]
        word = [rng.choice(letters) for _ in range(5)]
        assert product_of(act_on_tuple(g, word)).is_identity()


def test_word_validation():
    with pytest.raises(StrandOutOfRange):
        BraidWord(4, (4,))
    with pytest.raises(StrandOutOfRange):
        BraidWord(4, (0,))
    rng = random.Random(1)
    g = _random_tuple(rng, 1, 3)
    with pytest.raises(ShapeMismatch):
        act_on_tuple(g, BraidWord(4, (1,)))
    with pytest.raises(StrandOutOfRange):
        act_on_tuple(g, [5])


@pytest.mark.parametrize("spec", [FieldSpec.rational(), GF7, FieldSpec.cyclotomic(6)], ids=lambda s: s.label())
def test_action_on_zero_by_zero_tuples(spec):
    # `check` acts with its relations on the output tuple, 0 x 0 when dim W = 0
    g = (Matrix(spec, (), cols=0),) * 3
    assert act_on_tuple(g, [1, -2, 2, -1]) == g
