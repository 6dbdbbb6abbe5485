import json
import random

import pytest

from radonmono.braid import expand, parse_braid
from radonmono.errors import InputError, ProductNotIdentity, Singular, StrandOutOfRange
from radonmono.field import FieldSpec
from radonmono.group import reduce_element_modp
from radonmono.linalg import Matrix, product_of
from radonmono.radon import (
    FundamentalData,
    check_relations,
    conjugacy_match,
    parse_fundamental_data,
    radon_rank,
    radon_transform,
    result_to_dict,
    validate,
)

Q = FieldSpec.rational()


def scalar_fd(spec, value, r, braids, n=1):
    mats = tuple(Matrix.from_rows(spec, [[value]]) for _ in range(r))
    omegas = tuple(parse_braid(b, r) for b in braids)
    return FundamentalData(spec=spec, n=n, r=r, g=mats, omegas=omegas)


def test_validate_four_lines(four_lines_fd):
    report = validate(four_lines_fd)
    assert report.product_ok and report.vankampen_ok and report.strand_ok
    assert report.warnings == []


def test_validate_product_failure():
    fd = scalar_fd(Q, Q.from_int(-1), 3, ["b1^2"])
    report = validate(fd)
    assert not report.product_ok


def test_validate_vankampen_warning():
    # a non-scalar tuple moved by a braid word: warning, not error
    gf = FieldSpec.prime(5)
    a = Matrix.from_ints(gf, [[1, 1], [0, 1]])
    b = Matrix.from_ints(gf, [[1, 0], [1, 1]])
    c = (a * b).inverse()
    fd = FundamentalData(spec=gf, n=2, r=3, g=(a, b, c), omegas=(parse_braid("b1", 3),))
    report = validate(fd)
    assert report.product_ok and not report.vankampen_ok
    assert report.warnings


def test_radon_rank_examples(four_lines_fd):
    assert radon_rank(four_lines_fd) == 2
    q6 = FieldSpec.cyclotomic(6)
    fd6 = scalar_fd(q6, q6.gen(), 6, ["b1^3"])
    assert radon_rank(fd6) == 4
    fd2 = scalar_fd(Q, Q.from_int(-1), 2, ["b1^2"])
    assert radon_rank(fd2) == 0
    with pytest.raises(ProductNotIdentity):
        radon_rank(scalar_fd(Q, Q.from_int(-1), 3, ["b1"]))


def test_radon_transform_dims_and_product(four_lines_result):
    res = four_lines_result
    assert (res.dim_e, res.dim_h, res.dim_w) == (1, 3, 2)
    assert res.rank_formula == 2 and res.rank_matches
    assert res.braid_product_trivial
    assert res.gtilde_product_identity
    assert product_of(list(res.gtilde)).is_identity()
    for m in res.gtilde:
        m.inverse()  # all output matrices invertible


def test_radon_transform_empty_braid_list():
    fd = scalar_fd(Q, Q.from_int(-1), 4, [])
    res = radon_transform(fd)
    assert res.gtilde == ()
    assert (res.dim_e, res.dim_h, res.dim_w) == (1, 3, 2)


def test_radon_transform_zariski_dims(zariski_c_result, zariski_cprime_result):
    assert (zariski_c_result.dim_e, zariski_c_result.dim_h, zariski_c_result.dim_w) == (1, 5, 4)
    assert (
        zariski_cprime_result.dim_e,
        zariski_cprime_result.dim_h,
        zariski_cprime_result.dim_w,
    ) == (1, 5, 4)
    # scalar tuples are fixed by every braid word
    assert zariski_c_result.validation.vankampen_ok
    assert zariski_cprime_result.validation.vankampen_ok


def test_functoriality_on_fixed_tuple(four_lines_fd):
    # braid list (w1 w2) gives the product of the braid list (w1, w2) entries
    fd12 = FundamentalData(
        spec=four_lines_fd.spec,
        n=1,
        r=4,
        g=four_lines_fd.g,
        omegas=(parse_braid("b1^2 (b2^2)^b1", 4),),
    )
    combined = radon_transform(fd12).gtilde[0]
    fd_split = FundamentalData(
        spec=four_lines_fd.spec,
        n=1,
        r=4,
        g=four_lines_fd.g,
        omegas=(parse_braid("b1^2", 4), parse_braid("(b2^2)^b1", 4)),
    )
    parts = radon_transform(fd_split).gtilde
    assert combined == parts[0] * parts[1]


def test_check_relations(four_lines_fd, four_lines_result):
    assert check_relations(list(four_lines_result.gtilde), list(four_lines_fd.relations))
    assert check_relations(list(four_lines_result.gtilde), [])
    # constructed counterexample: a braid that moves a non-commuting pair
    gf = FieldSpec.prime(5)
    a = Matrix.from_ints(gf, [[1, 1], [0, 1]])
    b = Matrix.from_ints(gf, [[1, 0], [1, 1]])
    assert not check_relations([a, b], [parse_braid("b1", 2)])


def test_conjugacy_match_basics():
    gf = FieldSpec.prime(7)
    d = 2
    mats = [Matrix.from_ints(gf, [[1, 1], [0, 1]]), Matrix.from_ints(gf, [[1, 0], [1, 1]])]
    t = conjugacy_match(mats, mats)
    assert t is not None
    s = Matrix.from_ints(gf, [[2, 1], [1, 1]])
    conj = [s.inverse() * m * s for m in mats]
    t = conjugacy_match(mats, conj)
    assert t is not None
    t_inv = t.inverse()
    assert all(t_inv * m * t == c for m, c in zip(mats, conj))
    # mismatched tuples: no intertwiner
    other = [Matrix.from_ints(gf, [[2, 0], [0, 4]]), Matrix.from_ints(gf, [[1, 1], [0, 1]])]
    assert conjugacy_match(mats, other) is None


def test_conjugacy_match_identity_tuples():
    # the echelon basis of the 9-dimensional intertwiner space is singular
    # element by element, so only a combination of all of them is invertible
    i3 = Matrix.identity(Q, 3)
    t = conjugacy_match([i3, i3], [i3, i3])
    assert t is not None
    t.inverse()


@pytest.mark.parametrize("spec", [FieldSpec.prime(101), Q, FieldSpec.cyclotomic(6)], ids=["GF101", "Q", "Qzeta6"])
def test_conjugacy_match_repeated_eigenvalues(spec):
    # diag(1, 1, 2) and its conjugates have a 5-dimensional intertwiner space
    rng = random.Random(f"conj:{spec.label()}")
    mats = [Matrix.from_ints(spec, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]), Matrix.identity(spec, 3)]
    for _ in range(3):
        while True:
            s = Matrix.from_ints(spec, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            try:
                s_inv = s.inverse()
                break
            except Singular:
                continue
        conj = [s_inv * m * s for m in mats]
        t = conjugacy_match(mats, conj)
        assert t is not None
        assert all(t.inverse() * m * t == c for m, c in zip(mats, conj))


def test_cross_characteristic_reduction(four_lines_doc):
    fdq = parse_fundamental_data(four_lines_doc)
    resq = radon_transform(fdq)
    for p in (5, 7):
        doc = dict(four_lines_doc)
        doc["field"] = {"kind": "prime", "p": p}
        fdp = parse_fundamental_data(doc)
        resp = radon_transform(fdp)
        assert (resp.dim_e, resp.dim_h, resp.dim_w) == (resq.dim_e, resq.dim_h, resq.dim_w)
        for mq, mp in zip(resq.gtilde, resp.gtilde):
            for rq, rp in zip(mq.entries, mp.entries):
                for eq_, ep in zip(rq, rp):
                    assert reduce_element_modp(eq_, p) == ep.coeffs[0]


def test_parse_fundamental_data_errors(four_lines_doc):
    with pytest.raises(InputError):
        parse_fundamental_data({"field": {"kind": "nope"}, "n": 1, "r": 1, "matrices": [], "braids": []})
    missing_braids = json.loads(json.dumps(four_lines_doc))
    del missing_braids["braids"]
    with pytest.raises(InputError) as err:
        parse_fundamental_data(missing_braids)
    assert "braids" in str(err.value)
    doc = json.loads(json.dumps(four_lines_doc))
    doc["matrices"][0][0][0] = "z"
    with pytest.raises(InputError) as err:
        parse_fundamental_data(doc)
    assert "matrices[0][0][0]" in str(err.value)
    doc = json.loads(json.dumps(four_lines_doc))
    doc["braids"][0] = "b9"
    with pytest.raises((InputError, StrandOutOfRange)) as err:
        parse_fundamental_data(doc)
    assert "braids[0]" in str(err.value)


def test_braids_accepted_as_integer_arrays(four_lines_doc):
    doc = json.loads(json.dumps(four_lines_doc))
    fd_text = parse_fundamental_data(four_lines_doc)
    doc["braids"] = [list(expand(w, 4).letters) for w in fd_text.omegas]
    fd_flat = parse_fundamental_data(doc)
    assert radon_transform(fd_flat).gtilde == radon_transform(fd_text).gtilde


def test_result_dict_schema(four_lines_result):
    doc = result_to_dict(four_lines_result)
    assert set(doc) == {"dims", "gtilde", "report"}
    assert doc["dims"] == {"E": 1, "H": 3, "W": 2}
    assert len(doc["gtilde"]) == 6
    assert doc["report"]["product_ok"] is True


def test_zariski_transcription_normalized():
    # re-print the transcribed braid words in normalized grammar for diffing
    from radonmono.braid import braid_text
    from radonmono.cli import fixture_path
    from radonmono.radon import load_fundamental_data

    nine = [
        "b1^3",
        "b1^(b2^-1 b1)",
        "b3^3",
        "b3^(b4^-1 b3)",
        "b5^3",
        "b2^(b3 b3 b1)",
        "b4^(b5 b5 b3)",
        "b3^(b2^-1)",
        "b5^(b4^-1)",
    ]
    fd = load_fundamental_data(fixture_path("zariski_c"))
    assert [braid_text(w) for w in fd.omegas] == nine + nine
    eighteen = [
        "b3^(b2^-1 b1 b2^-1)",
        "b4",
        "b5",
        "b2^3",
        "(b2^(b1^-1))^3",
        "b2^(b3^-1)",
        "b2^(b1^-1 b3^-1 b4^-1)",
        "b1^3",
        "b1^(b2^-1 b3 b4^-1)",
        "b5^(b4^-1 b4^-1)",
        "b3^(b2^-1 b4^-1 b4^-1)",
        "b4^3",
        "b1^3",
        "b3^(b2^-1 b1 b2^-1)",
        "b3^(b2^-1 b1 b2^-1)",
        "b1^3",
        "b1^(b2^-1 b2^-1)",
        "b2",
    ]
    fdp = load_fundamental_data(fixture_path("zariski_cprime"))
    assert [braid_text(w) for w in fdp.omegas] == eighteen
    print("\nnormalized braid words, C:")
    for line in [braid_text(w) for w in fd.omegas][:9]:
        print(" ", line)
    print("normalized braid words, C':")
    for line in [braid_text(w) for w in fdp.omegas]:
        print(" ", line)


@pytest.mark.parametrize("m", [3001, 10**9])
def test_conductor_bound_refused_before_any_table(monkeypatch, four_lines_doc, m):
    def no_field(m):
        raise AssertionError(f"Q(zeta_{m}) was built")

    monkeypatch.setattr(FieldSpec, "cyclotomic", staticmethod(no_field))
    with pytest.raises(InputError) as err:
        parse_fundamental_data({**four_lines_doc, "field": {"kind": "cyclotomic", "m": m}})
    assert str(err.value) == f"<input>: field.m must be at most 3000, got {m}"


def test_conductor_bound_admits_3000(four_lines_doc):
    fd = parse_fundamental_data({**four_lines_doc, "field": {"kind": "cyclotomic", "m": 3000}})
    assert fd.spec == FieldSpec.cyclotomic(3000) and fd.g[0].entries[0][0] == -1


# -- each distinct word is moved once ----------------------------------------------


@pytest.mark.parametrize("name, calls", [("zariski_c", 9), ("zariski_cprime", 14)])
def test_each_distinct_word_is_moved_once(monkeypatch, name, calls):
    from radonmono import radon
    from radonmono.cli import fixture_path

    fd = radon.load_fundamental_data(fixture_path(name))
    assert len(fd.omegas) == 18
    moved, phibar = [], radon.phibar
    monkeypatch.setattr(radon, "phibar", lambda ts, word, verify=False: moved.append(word) or phibar(ts, word, verify))
    result = radon_transform(fd)
    assert len(moved) == len({w.letters for w in moved}) == calls
    monkeypatch.undo()
    assert result_to_dict(result) == result_to_dict(radon_transform(fd, verify=True))


def test_repeated_words_give_repeated_maps(zariski_c_result):
    # zariski_c lists its 9 words twice
    gtilde = zariski_c_result.gtilde
    assert len(gtilde) == 18 and all(gtilde[k] == gtilde[k + 9] for k in range(9))


def test_a_repeated_moving_word_warns_at_each_index(monkeypatch):
    from radonmono import radon

    gf = FieldSpec.prime(5)
    a = Matrix.from_ints(gf, [[1, 1], [0, 1]])
    b = Matrix.from_ints(gf, [[1, 0], [1, 1]])
    g = (a, b, (a * b).inverse())
    # b1 moves the tuple; the full twist (b1 b2)^3 conjugates it by its product, 1
    omegas = tuple(parse_braid(w, 3) for w in ["b1", "(b1 b2)^3", "b1", "b1"])
    fd = FundamentalData(spec=gf, n=2, r=3, g=g, omegas=omegas)
    want = [f"braid word {k} does not fix the monodromy tuple" for k in (1, 3, 4)]
    acted, act = [], radon.act_on_tuple
    monkeypatch.setattr(radon, "act_on_tuple", lambda mats, word: acted.append(word) or act(mats, word))
    report = validate(fd)
    assert not report.vankampen_ok and report.warnings == want
    assert len(acted) == 2
    result = radon_transform(fd)
    assert not result.validation.vankampen_ok and result.validation.warnings[: len(want)] == want
    assert result.gtilde[0] == result.gtilde[2] == result.gtilde[3]
