"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 1 compares the
computed four-line tuple against the reference matrices of the source worked
example.  The matrices as printed carry a one-sign misprint in entry 2; the
reference used here corrects that single coefficient, and the companion
erratum test derives the correction from the printed matrices alone.
"""

import json
import random
import time

from deformation import word_matrix
from radonmono.braid import BraidWord, act_on_tuple, expand, parse_braid
from radonmono.cocycle import compute_E, compute_H
from radonmono.field import FieldSpec
from radonmono.group import (
    closure,
    invariant_decomposition,
    modular_group_analysis,
    reduce_element_modp,
)
from radonmono.linalg import Matrix, intertwiner_space, product_of
from radonmono.radon import (
    check_relations,
    conjugacy_match,
    load_fundamental_data,
    parse_fundamental_data,
    radon_rank,
    radon_transform,
)
from radonmono.cli import fixture_path

# The reference tuple of the four-line worked example, verbatim as printed.
PRINTED_FOUR_LINE_TUPLE = [
    [[1, -2], [0, 1]],
    [[1, 0], [-2, 1]],
    [[-1, -2], [2, 3]],
    [[-1, -2], [2, 3]],
    [[-3, -8], [2, 5]],
    [[1, -2], [0, 1]],
]

# The printed tuple multiplies to [[9, 16], [-4, -7]] and is not fixed by
# its third relation, so it cannot be simultaneously conjugate to any tuple
# with product 1.  The product rule g_1 ... g_6 = 1 applied to printed
# entries 1 and 3-6 forces entry 2 to be [[1, 0], [2, 1]]: the printed entry
# with the sign of its (2,1) coefficient flipped.  With it the tuple has
# product 1 and is fixed by all three relations.  The erratum test below
# derives this from the printed matrices alone.
FOUR_LINE_REFERENCE_TUPLE = (
    PRINTED_FOUR_LINE_TUPLE[:1] + [[[1, 0], [2, 1]]] + PRINTED_FOUR_LINE_TUPLE[2:]
)

FOUR_LINE_RELATIONS = ["(b4 b5 b4)^2", "b3^2", "b3^-1 (b1 b2 b1)^2 b3"]


def completion(mats, k):
    """The entry k forced by the product rule from all the other entries.

    g_1 ... g_r = 1 holds exactly when its cyclic rotation
    g_(k+1) ... g_r g_1 ... g_k = 1 does, so g_k is the inverse of the
    product of the other entries taken in that cyclic order.
    """
    return product_of(mats[k + 1 :] + mats[:k]).inverse()


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {number}: {status} - {detail}")


def test_criterion_1_four_line_golden_tuple():
    started = time.perf_counter()
    fd = load_fundamental_data(fixture_path("four_lines"))
    result = radon_transform(fd)
    target = [Matrix.from_ints(fd.spec, grid) for grid in FOUR_LINE_REFERENCE_TUPLE]
    conjugator = conjugacy_match(list(result.gtilde), target)
    elapsed = time.perf_counter() - started
    ok = result.dim_w == 2 and conjugator is not None and elapsed < 1.0
    report(1, ok, f"dim W = {result.dim_w}, conjugator found = {conjugator is not None}, {elapsed:.2f}s")
    assert result.dim_w == 2
    assert elapsed < 1.0
    # conjugacy_match only searches small combinations of the intertwiner
    # basis when the space has dimension > 1; at dimension 1 every nonzero
    # intertwiner is a scalar multiple of the basis vector, so the search is
    # exhaustive and a None below is a real mismatch.
    space = intertwiner_space(list(result.gtilde), target)
    assert space.dim == 1, f"intertwiner space onto the reference has dim {space.dim}"
    assert conjugator is not None, (
        "no simultaneous conjugacy onto the corrected four-line reference "
        "tuple (the printed tuple with entry 2 corrected, see the erratum "
        "test below)"
    )
    t_inv = conjugator.inverse()
    for computed, reference in zip(result.gtilde, target):
        assert t_inv * computed * conjugator == reference


def test_published_reference_tuple_internal_consistency_evidence():
    """Erratum for the printed four-line reference tuple, from its matrices alone.

    Simultaneous conjugacy preserves the ordered product and the stability
    relations.  The printed tuple breaks both.  The product rule applied to
    printed entries 1 and 3-6 forces entry 2, and the forced matrix differs
    from the printed one in a single coefficient.  With that entry the tuple
    has product 1 and is fixed by every relation, like the computed tuple.
    """
    spec = FieldSpec.rational()
    printed = [Matrix.from_ints(spec, grid) for grid in PRINTED_FOUR_LINE_TUPLE]
    relations = [expand(parse_braid(t, 6), 6) for t in FOUR_LINE_RELATIONS]

    def fixed_by(mats):
        return [act_on_tuple(mats, rel) == tuple(mats) for rel in relations]

    assert not product_of(printed).is_identity()
    assert fixed_by(printed) == [True, True, False]

    forced = completion(printed, 1)
    corrected = [Matrix.from_ints(spec, grid) for grid in FOUR_LINE_REFERENCE_TUPLE]
    assert forced == corrected[1]
    assert corrected[:1] + corrected[2:] == printed[:1] + printed[2:]
    differing = [
        (i, j)
        for i in range(2)
        for j in range(2)
        if forced.entries[i][j] != printed[1].entries[i][j]
    ]
    assert differing == [(1, 0)]
    assert forced.entries[1][0] == -printed[1].entries[1][0]
    assert product_of(corrected).is_identity()
    assert fixed_by(corrected) == [True, True, True]

    # entry 2 is the only position whose forced completion keeps every
    # relation and the unipotent trace of the printed entries
    two = spec.from_int(2)

    def repairs(k):
        mats = printed[:k] + [completion(printed, k)] + printed[k + 1 :]
        trace = mats[k].entries[0][0] + mats[k].entries[1][1]
        return trace == two and all(fixed_by(mats))

    assert [k for k in range(6) if repairs(k)] == [1]

    fd = load_fundamental_data(fixture_path("four_lines"))
    result = radon_transform(fd)
    assert product_of(list(result.gtilde)).is_identity()
    assert check_relations(list(result.gtilde), list(fd.relations))
    # each printed entry is individually conjugate to an entry of the
    # computed tuple (all unipotent of trace 2 here)
    for mat in printed + list(result.gtilde):
        assert mat.entries[0][0] + mat.entries[1][1] == two


def test_criterion_2_rank_formula():
    started = time.perf_counter()
    four = load_fundamental_data(fixture_path("four_lines"))
    zc = load_fundamental_data(fixture_path("zariski_c"))
    zcp = load_fundamental_data(fixture_path("zariski_cprime"))
    ranks = (radon_rank(four), radon_rank(zc), radon_rank(zcp))
    res_four = radon_transform(four)
    res_zc = radon_transform(zc)
    res_zcp = radon_transform(zcp)
    elapsed = time.perf_counter() - started
    dims_ok = (
        (res_four.dim_e, res_four.dim_h) == (1, 3)
        and (res_zc.dim_e, res_zc.dim_h) == (1, 5)
        and (res_zcp.dim_e, res_zcp.dim_h) == (1, 5)
    )
    agree = (
        res_four.dim_w == ranks[0]
        and res_zc.dim_w == ranks[1]
        and res_zcp.dim_w == ranks[2]
    )
    ok = ranks == (2, 4, 4) and dims_ok and agree and elapsed < 1.0
    report(2, ok, f"ranks = {ranks}, dims ok = {dims_ok}, rank = dim W on all, {elapsed:.2f}s")
    assert ranks == (2, 4, 4)
    assert dims_ok and agree
    assert elapsed < 1.0


def test_criterion_3_relations_and_product():
    started = time.perf_counter()
    fd = load_fundamental_data(fixture_path("four_lines"))
    result = radon_transform(fd)
    relations_ok = check_relations(list(result.gtilde), list(fd.relations))
    product_ok = product_of(list(result.gtilde)).is_identity()
    elapsed = time.perf_counter() - started
    ok = relations_ok and product_ok and elapsed < 1.0
    report(3, ok, f"three relations fixed = {relations_ok}, product identity = {product_ok}, {elapsed:.2f}s")
    assert relations_ok and product_ok
    assert elapsed < 1.0


def test_criterion_4_zariski_c_group():
    fd = load_fundamental_data(fixture_path("zariski_c"))
    result = radon_transform(fd)
    gens = list(result.gtilde)

    started = time.perf_counter()
    analysis = modular_group_analysis(gens, [7, 13])
    modular_elapsed = time.perf_counter() - started
    deco = invariant_decomposition(gens)
    order_ok = analysis["order"] == 648
    solvable_ok = analysis["solvable"] and analysis["derived_series"][-1] == 1
    deco_ok = (
        deco["fixed_dim"] == 1
        and deco["moving_dim"] == 3
        and deco["decomposes"]
        and deco["moving_irreducible_by_spinning"]
        and 3 in deco["standard_seed_spin_dims"]
    )
    exact = closure(gens)
    exact_ok = exact.order == 648
    ok = order_ok and solvable_ok and deco_ok and exact_ok and modular_elapsed < 30.0
    report(
        4,
        ok,
        f"order = {analysis['order']} (mod 7 and 13), derived = {analysis['derived_series']}, "
        f"decomposition = {deco['moving_dim']}+{deco['fixed_dim']}, irreducible summand = "
        f"{deco['moving_irreducible_by_spinning']}, exact cross-check = {exact.order}, "
        f"modular time {modular_elapsed:.1f}s",
    )
    assert order_ok and solvable_ok and deco_ok and exact_ok
    assert modular_elapsed < 30.0


def test_criterion_5_zariski_cprime_group():
    fd = load_fundamental_data(fixture_path("zariski_cprime"))
    result = radon_transform(fd)
    gens = list(result.gtilde)

    started = time.perf_counter()
    analysis = modular_group_analysis(gens, [7, 13])
    elapsed = time.perf_counter() - started
    series = analysis["derived_series"]
    readings = {155520: 51840, 77760: 25920}
    order = analysis["order"]
    reading_ok = order in readings and len(series) >= 3 and series[1] == readings[order]
    perfect_ok = len(series) >= 3 and series[1] == series[2]
    scalar_ok = 2 in analysis["scalar_exponents"]
    not_solvable = not analysis["solvable"]
    ok = reading_ok and perfect_ok and scalar_ok and not_solvable and elapsed < 600.0
    label = "full symplectic" if order == 155520 else "projective symplectic"
    report(
        5,
        ok,
        f"order = {order} ({label} reading), derived = {series}, "
        f"cube-root scalar present = {scalar_ok}, {elapsed:.1f}s",
    )
    assert reading_ok, f"order {order} with series {series} matches neither reading"
    assert perfect_ok and scalar_ok and not_solvable
    assert elapsed < 600.0


def _random_invertible(rng, spec, n):
    while True:
        m = Matrix.from_ints(spec, [[rng.randrange(spec.p) for _ in range(n)] for _ in range(n)])
        try:
            m.inverse()
            return m
        except Exception:
            continue


def test_criterion_6_property_suite():
    rng = random.Random(271828)
    primes = [5, 7, 11, 13]
    started = time.perf_counter()
    cases = 0
    for _ in range(200):
        spec = FieldSpec.prime(rng.choice(primes))
        n = rng.choice([1, 1, 2, 2, 3])
        r = rng.randint(3, 6)
        mats = [_random_invertible(rng, spec, n) for _ in range(r - 1)]
        mats.append(product_of(mats).inverse())
        g = tuple(mats)
        letters = [i for i in range(-(r - 1), r) if i != 0]
        w1 = [rng.choice(letters) for _ in range(rng.randint(1, 4))]
        w2 = [rng.choice(letters) for _ in range(rng.randint(1, 4))]

        # cocycle rule
        assert word_matrix(g, w1 + w2) == word_matrix(g, w1) * word_matrix(
            act_on_tuple(g, w1), w2
        )

        # braid-relation equality of the induced maps on the cocycle space
        i = rng.randint(1, r - 2)
        lhs = word_matrix(g, [i, i + 1, i])
        rhs = word_matrix(g, [i + 1, i, i + 1])
        h_space = compute_H(g)
        assert h_space.basis * lhs == h_space.basis * rhs

        # stability of the cocycle and coboundary spaces
        full, target = word_matrix(g, w1), act_on_tuple(g, w1)
        h_target, e_target = compute_H(target), compute_E(target)
        for row in (h_space.basis * full).entries:
            assert h_target.contains_vector(row)
        for row in (compute_E(g).basis * full).entries:
            assert e_target.contains_vector(row)

        # action properties: concatenation, product preservation, inverses
        assert act_on_tuple(act_on_tuple(g, w1), w2) == act_on_tuple(g, w1 + w2)
        assert product_of(act_on_tuple(g, w1)).is_identity()
        word = BraidWord(r, tuple(w1))
        assert act_on_tuple(act_on_tuple(g, word), word.inverse()) == g
        assert word_matrix(g, list(word.letters) + list(word.inverse().letters)) == Matrix.identity(
            spec, n * r
        )
        cases += 1
    elapsed = time.perf_counter() - started
    report(6, cases == 200, f"{cases} random cases, all exact equalities, {elapsed:.1f}s")
    assert cases == 200


def test_criterion_7_cross_characteristic():
    started = time.perf_counter()
    with open(fixture_path("four_lines")) as handle:
        doc = json.load(handle)
    res_q = radon_transform(parse_fundamental_data(doc))
    all_ok = True
    for p in (5, 7):
        doc_p = dict(doc)
        doc_p["field"] = {"kind": "prime", "p": p}
        res_p = radon_transform(parse_fundamental_data(doc_p))
        assert (res_p.dim_e, res_p.dim_h, res_p.dim_w) == (res_q.dim_e, res_q.dim_h, res_q.dim_w)
        for mq, mp in zip(res_q.gtilde, res_p.gtilde):
            for rq, rp in zip(mq.entries, mp.entries):
                for eq_, ep in zip(rq, rp):
                    if reduce_element_modp(eq_, p) != ep.coeffs[0]:
                        all_ok = False
    elapsed = time.perf_counter() - started
    ok = all_ok and elapsed < 1.0
    report(7, ok, f"GF(5) and GF(7) runs reduce the rational result entrywise, {elapsed:.2f}s")
    assert all_ok
    assert elapsed < 1.0
