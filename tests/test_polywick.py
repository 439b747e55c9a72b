import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_element, random_tensor, time_limit
from pairing_reference import restricted_wick_by_pairings
from qfock.combinat import Pairing, contraction_stats, enumerate_pairings, pairing_table
from qfock.fock import FockTensor, field_operator
from qfock.polywick import (INSERT, LEG, DeltaPolynomial, InsertionPattern,
                            counterterm_monomial, counterterm_polynomial,
                            delta_R, disentangle_check,
                            quartic_2d_configs, quartic_3d_configs,
                            restricted_wick)
from qfock.wickalg import (WickElement, expand_field_product, multiply,
                           norm_constants, to_operator, triple_norm)

DATA = Path(__file__).parent / "data"


# -- patterns -----------------------------------------------------------------


def test_pattern_structure():
    pat = InsertionPattern.from_string("LILLIL")
    assert pat.leg_slots == (1, 3, 4, 6)
    assert pat.n_inserts == 2
    assert InsertionPattern.from_json(pat.to_json()).slots == pat.slots


def test_pattern_validation():
    with pytest.raises(ValueError):
        InsertionPattern(())
    with pytest.raises(ValueError):
        InsertionPattern(("leg", "bogus"))


@pytest.mark.parametrize("doc", [
    [1],
    "LIL",
    {},
    {"slots": 5},
    {"slots": [1, 2]},
    {"slots": [{"type": "leg"}, ["insert"]]},
    {"slots": [{"type": "leg"}, {"kind": "insert"}]},
    {"slots": [{"type": "bogus"}]},
    {"slots": [{"type": ["leg"]}]},
    {"slots": []},
])
def test_pattern_from_json_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        InsertionPattern.from_json(doc)


# -- the insertion product -----------------------------------------------------


def test_restricted_wick_no_inserts(rng):
    # with no insertion slots only the empty pairing survives
    pat = InsertionPattern.from_string("LLL")
    F = FockTensor(3, rng.standard_normal((3, 3, 3)))
    out = restricted_wick(pat, Pairing.empty(pat.leg_context()), F, [], 0.7)
    assert out.support() == (3,)
    assert np.allclose(out.coeff(3).data, F.data)


def test_restricted_wick_scalar_inserts_weight(rng):
    # degree-0 insertions admit no pairings; the prior contraction still
    # contributes its intertwining weight over the full row
    d, q = 2, 0.6
    pat = InsertionPattern.from_string("LILIL")
    ctx = pat.leg_context()
    f = rng.standard_normal(d)
    for pairs, expected_crb in [(((1, 5),), 1), (((1, 3),), 0), (((3, 5),), 0)]:
        pi = Pairing(pairs, ctx)
        out = restricted_wick(pat, pi, FockTensor.from_vectors([f]),
                              [WickElement.one(d)] * 2, q)
        assert out.support() == (1,)
        assert np.allclose(out.coeff(1).data, q ** expected_crb * f)


def test_restricted_wick_degree_mismatch(rng):
    pat = InsertionPattern.from_string("LIL")
    F = FockTensor(2, rng.standard_normal((2, 2)))
    pi = Pairing(((1, 3),), pat.leg_context())
    with pytest.raises(ValueError, match="remaining legs"):
        restricted_wick(pat, pi, F, [WickElement.one(2)], 0.5)


@pytest.mark.parametrize("text, supports", [
    ("LIL", [(0, 1, 2, 3)]),
    ("LILIL", [(0, 1, 2, 3), (0, 2)]),
    ("LILIL", [(1, 3), ()]),  # an empty insert: the product is zero
    ("LILILIL", [(0, 1, 2), (0, 1), (0, 2)]),
])
def test_restricted_wick_takes_inserts_whole(text, supports, rng):
    # a multi-chaos insert goes in whole: the per-pairing reference summed over
    # one chaos component per insert
    pat = InsertionPattern.from_string(text)
    for pi, d in itertools.product(enumerate_pairings(pat.leg_context()), (1, 2)):
        F = random_tensor(rng, d, len(pi.free()))
        As = [WickElement(d, {k: random_tensor(rng, d, k) for k in ks}) for ks in supports]
        for q in (0.0, 0.5, -0.5, 1.0, -1.0):
            want = WickElement.zero(d)
            for Gs in itertools.product(*(A.chaos.values() for A in As)):
                want = want + restricted_wick_by_pairings(pat, pi, F, Gs, q)
            gap = (restricted_wick(pat, pi, F, As, q) - want).max_abs_coeff()
            assert gap <= 1e-14 * want.max_abs_coeff(), (text, pi.pairs, d, q)


def test_restricted_wick_vs_subtracted_product(rng):
    # inserting one operator between two legs equals the plain three-factor
    # product minus the term that contracts the outer legs
    d, q = 2, 0.5
    f1, g, f3 = (rng.standard_normal(d) for _ in range(3))
    pat = InsertionPattern.from_string("LIL")
    F = FockTensor.from_vectors([f1, f3])
    ctx = pat.leg_context()
    operators = [WickElement.one(d), WickElement.from_vector(g), WickElement.one(d)]
    out = delta_R(pat, Pairing.empty(ctx), F, operators, q)
    full = multiply(multiply(WickElement.from_vector(f1),
                             WickElement.from_vector(g), q),
                    WickElement.from_vector(f3), q)
    subtracted = delta_R(pat, Pairing(((1, 3),), ctx), FockTensor.scalar(d, 1.0),
                         operators, q).scale(float(np.dot(f1, f3)))
    assert out.allclose(full - subtracted, 1e-12)


# -- worked insertion examples (exact coefficients) --------------------------------


def _setup_example(d=4):
    e = np.eye(d)
    return e[0], e[1], e[2], e[3], e[0] + 0.5 * e[1]


def test_insertion_example_chaos_one_both_cases():
    d = 4
    f1, f2, f3, g1, g2 = _setup_example(d)
    q = 0.37
    pat = InsertionPattern.from_string("LILIL")
    ctx = pat.leg_context()
    one = WickElement.one(d)
    xi = WickElement.from_vector

    out = delta_R(pat, Pairing(((1, 5),), ctx), FockTensor.from_vectors([f2]),
                  [one, xi(g1), xi(g2), one], q)
    expect = (WickElement.from_tensor(FockTensor.from_vectors([g1, f2, g2])).scale(q ** 3)
              + xi(f2).scale(q ** 2 * np.dot(g1, g2))
              + xi(g1).scale(q * np.dot(f2, g2))
              + xi(g2).scale(q * np.dot(g1, f2)))
    assert (out - expect).max_abs_coeff() <= 1e-12

    out = delta_R(pat, Pairing(((1, 3),), ctx), FockTensor.from_vectors([f3]),
                  [one, xi(g1), xi(g2), one], q)
    expect = (WickElement.from_tensor(FockTensor.from_vectors([g1, g2, f3])).scale(q)
              + xi(f3).scale(q * np.dot(g1, g2))
              + xi(g1).scale(q * np.dot(g2, f3))
              + xi(g2).scale(q ** 2 * np.dot(g1, f3)))
    assert (out - expect).max_abs_coeff() <= 1e-12


def test_insertion_example_chaos_two_both_cases():
    d = 4
    f1, f2, f3, g1, g2 = _setup_example(d)
    q = 0.37
    pat = InsertionPattern.from_string("LILIL")
    ctx = pat.leg_context()
    one = WickElement.one(d)
    xi = WickElement.from_vector
    A1 = multiply(xi(g1), xi(g2), q)

    out = delta_R(pat, Pairing(((1, 5),), ctx), FockTensor.from_vectors([f2]),
                  [one, A1, one, one], q)
    expect = (WickElement.from_tensor(FockTensor.from_vectors([g1, g2, f2])).scale(q ** 3)
              + xi(f2).scale(q * np.dot(g1, g2))
              + xi(g1).scale(q * np.dot(g2, f2))
              + xi(g2).scale(q ** 2 * np.dot(g1, f2)))
    assert (out - expect).max_abs_coeff() <= 1e-12

    out = delta_R(pat, Pairing(((1, 3),), ctx), FockTensor.from_vectors([f3]),
                  [one, A1, one, one], q)
    expect = (WickElement.from_tensor(FockTensor.from_vectors([g1, g2, f3])).scale(q ** 2)
              + xi(f3).scale(np.dot(g1, g2))
              + xi(g1).scale(q ** 2 * np.dot(g2, f3))
              + xi(g2).scale(q ** 3 * np.dot(g1, f3)))
    assert (out - expect).max_abs_coeff() <= 1e-12


def test_delta_r_with_unit_insertions_reduces_to_weighted_product(rng):
    d, q = 3, 0.45
    pat = InsertionPattern.from_string("LILIL")
    ctx = pat.leg_context()
    one = WickElement.one(d)
    fs = {s: rng.standard_normal(d) for s in pat.leg_slots}
    for pi in enumerate_pairings(ctx):
        free = pi.free()
        F = (FockTensor.from_vectors([fs[s] for s in free]) if free
             else FockTensor.scalar(d, 1.0))
        out = delta_R(pat, pi, F, [one, one, one, one], q)
        crb = contraction_stats(pi)[2]
        expect = (WickElement.from_tensor(F).scale(q ** crb) if free
                  else WickElement.one(d, q ** crb))
        assert out.allclose(expect, 1e-13)


def test_delta_r_operator_count_mismatch(rng):
    pat = InsertionPattern.from_string("LIL")
    F = FockTensor.from_vectors([rng.standard_normal(2)] * 2)
    with pytest.raises(ValueError, match="operators"):
        delta_R(pat, Pairing.empty(pat.leg_context()), F, [WickElement.one(2)], 0.5)


def test_delta_r_bimodule_property(rng):
    # pre/post multiplying the outer operators factors through the map
    d, q = 2, 0.5
    pat = InsertionPattern.from_string("LIL")
    ctx = pat.leg_context()
    F = FockTensor.from_vectors([rng.standard_normal(d), rng.standard_normal(d)])
    A0, A1, A2, X, Y = (random_element(rng, d, 2) for _ in range(5))
    base = delta_R(pat, Pairing.empty(ctx), F, [A0, A1, A2], q)
    shifted = delta_R(pat, Pairing.empty(ctx), F,
                      [multiply(X, A0, q), A1, multiply(A2, Y, q)], q)
    assert shifted.allclose(multiply(multiply(X, base, q), Y, q), 1e-9)


# -- disentanglement ------------------------------------------------------------------


def test_disentangle_three_leg_structure(rng):
    # lhs splits into the plain insertion product plus one term per leg pair
    d, q = 2, 0.55
    pat = InsertionPattern.from_string("LILIL")
    ctx = pat.leg_context()
    fs = [rng.standard_normal(d) for _ in range(3)]
    As = [WickElement.one(d), random_element(rng, d, 2),
          random_element(rng, d, 2), WickElement.one(d)]
    lhs, rhs = disentangle_check(pat, fs, As, q)
    assert lhs.allclose(rhs, 1e-10)
    vec_of = dict(zip(ctx.elements, fs))
    total = WickElement.zero(d)
    n_terms = 0
    for pi in enumerate_pairings(ctx):
        coeff = 1.0
        for s, t in pi.pairs:
            coeff *= float(np.dot(vec_of[s], vec_of[t]))
        free = pi.free()
        F = (FockTensor.from_vectors([vec_of[s] for s in free]) if free
             else FockTensor.scalar(d, 1.0))
        total = total + delta_R(pat, pi, F, As, q).scale(coeff)
        n_terms += 1
    assert n_terms == 4
    assert lhs.allclose(total, 1e-10)


def test_disentangle_no_insertions_reduces_to_expansion(rng):
    d, q = 2, 0.5
    pat = InsertionPattern.from_string("LLL")
    fs = [rng.standard_normal(d) for _ in range(3)]
    ones = [WickElement.one(d), WickElement.one(d)]
    lhs, rhs = disentangle_check(pat, fs, ones, q)
    assert lhs.allclose(rhs, 1e-12)
    assert lhs.allclose(expand_field_product(fs, q), 1e-12)


@pytest.mark.parametrize("q", [-0.9, -0.5, 0.5, 0.9])
def test_disentangle_random_instances(q, rng):
    d = 2
    pat = InsertionPattern.from_string("LILIL")
    for _ in range(10):
        fs = [rng.standard_normal(d) for _ in range(3)]
        As = [random_element(rng, d, 2) for _ in range(4)]
        lhs, rhs = disentangle_check(pat, fs, As, q)
        assert lhs.allclose(rhs, 1e-10)


@pytest.mark.parametrize("pattern", ["LLIL", "ILLI", "LIIL", "LILLIL", "LLILIL"])
def test_disentangle_other_shapes(pattern, rng):
    # empty leg blocks, leading/trailing and adjacent inserts, and four-leg rows
    d, q = 2, 0.6
    pat = InsertionPattern.from_string(pattern)
    fs = [rng.standard_normal(d) for _ in range(len(pat.leg_slots))]
    As = [random_element(rng, d, 2) for _ in range(pat.n_inserts + 2)]
    lhs, rhs = disentangle_check(pat, fs, As, q)
    assert lhs.allclose(rhs, 1e-9 * max(1.0, lhs.max_abs_coeff()))


@pytest.mark.parametrize("q", [-0.5, 0.5, 0.9])
@pytest.mark.parametrize("pattern", ["LIL", "LLIL", "LILIL"])
def test_disentangle_on_the_matrix_route(pattern, q, rng):
    # A_0 ξ(f..) A_1 ξ(f..) … A_n composed as truncated operators against the
    # operator of the symbolic right side; with chaos <= 1 throughout, both
    # are exact on input sectors 0 and 1 at cutoff 8
    d, cutoff = 2, 8
    pat = InsertionPattern.from_string(pattern)
    fs = [rng.standard_normal(d) for _ in pat.leg_slots]
    As = [random_element(rng, d, 1) for _ in range(pat.n_inserts + 2)]
    legs, ops = iter(fs), iter(As)
    lhs = to_operator(next(ops), q, cutoff)
    for slot in pat.slots:
        lhs = lhs.compose(field_operator(next(legs), q, cutoff) if slot == LEG
                          else to_operator(next(ops), q, cutoff))
    lhs = lhs.compose(to_operator(next(ops), q, cutoff))
    _, rhs = disentangle_check(pat, fs, As, q)
    sectors = range(cutoff + 1)
    want = to_operator(rhs, q, cutoff).restricted_matrix([0, 1], sectors)
    got = lhs.restricted_matrix([0, 1], sectors)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("d, chaos", [(1, 8), (2, 6)])
def test_disentangle_with_high_chaos_inserts_is_fast(d, chaos, rng):
    # two pure high-chaos inserts: the insertion product's work grows with the
    # tuples of open positions, where a sum over its pairings would take minutes
    pat = InsertionPattern.from_string("LILIL")
    one = WickElement.one(d)
    with time_limit(10):
        for q in (-0.9, -0.5, 0.5, 0.9):
            fs = [rng.standard_normal(d) for _ in range(3)]
            Gs = [WickElement.from_tensor(random_tensor(rng, d, chaos)) for _ in range(2)]
            lhs, rhs = disentangle_check(pat, fs, [one, *Gs, one], q)
            assert (lhs - rhs).max_abs_coeff() <= 1e-12 * lhs.max_abs_coeff()


# -- norm estimates --------------------------------------------------------------------


@pytest.mark.parametrize("q", [-0.5, 0.5])
def test_insertion_product_norm_bound(q, rng):
    # graded norm of the insertion product against the counting bound
    d = 2
    nc = norm_constants(q)
    pat = InsertionPattern.from_string("LILIL")
    ctx = pat.leg_context()
    for _ in range(10):
        F = FockTensor(d, rng.standard_normal((d, d, d)))
        degs = rng.integers(0, 3, size=2)
        Gs = [FockTensor(d, rng.standard_normal((d,) * int(k))) for k in degs]
        out = restricted_wick(pat, Pairing.empty(ctx), F,
                              [WickElement.from_tensor(G) for G in Gs], q)
        lhs = triple_norm(out, q)
        legs = len(ctx)
        blocks = [1, int(degs[0]), 1, int(degs[1]), 1]
        bound = (nc.C ** 1.5 * nc.D ** (legs + int(degs.sum()))
                 * np.prod([b + 1 for b in blocks])
                 * F.norm() * np.prod([G.norm() for G in Gs]))
        assert lhs <= bound + 1e-9


@pytest.mark.parametrize("q", [-0.5, 0.5])
def test_renormalised_map_norm_bound(q, rng):
    d = 2
    nc = norm_constants(q)
    pat = InsertionPattern.from_string("LILIL")
    ctx = pat.leg_context()
    for pairs in [(), ((1, 3),), ((1, 5),)]:
        pi = Pairing(pairs, ctx)
        free = pi.free()
        for _ in range(5):
            F = (FockTensor(d, rng.standard_normal((d,) * len(free))) if free
                 else FockTensor.scalar(d, rng.standard_normal()))
            As = [random_element(rng, d, 2) for _ in range(4)]
            out = delta_R(pat, pi, F, As, q)
            # remaining legs split by the two insertion slots
            rem_blocks = [sum(1 for s in free if s < 2),
                          sum(1 for s in free if 2 < s < 4),
                          sum(1 for s in free if s > 4)]
            bound = (nc.C ** 1.5 * nc.D ** len(free)
                     * np.prod([b + 1 for b in rem_blocks])
                     * np.prod([triple_norm(a, q) for a in As])
                     * F.norm())
            assert triple_norm(out, q) <= bound + 1e-9


# -- counterterm calculus ---------------------------------------------------------------


def test_counterterm_monomial_examples():
    assert counterterm_monomial(4, (3,), ((1, 2), (4, 5))) == (0, 0)
    assert counterterm_monomial(4, (3,), ((1, 4), (2, 5))) == (1, 2)
    assert counterterm_monomial(2, (2,), ((1, 3),)) == (0, 1)


def test_counterterm_monomial_requires_full_pairing():
    with pytest.raises(ValueError, match="incomplete"):
        counterterm_monomial(4, (3,), ((1, 2),))
    with pytest.raises(ValueError, match="disjoint"):
        counterterm_monomial(2, (2,), ((1, 2),))


def test_counterterm_monomial_relabel_invariance():
    # shifting all slots preserves the relative order and the monomial
    base = counterterm_monomial(4, (3,), ((1, 4), (2, 5)))
    shifted = counterterm_monomial(4, (30,), ((10, 40), (20, 50)))
    assert base == shifted


def test_delta_polynomial_algebra():
    p = DeltaPolynomial({(0, 0): 2}) + DeltaPolynomial({(1, 2): 3})
    assert p.evaluate(2.0, 10.0) == 2 + 3 * 2 * 100
    assert p.to_json() == [{"q": 0, "delta": 0, "count": 2}, {"q": 1, "delta": 2, "count": 3}]
    single = counterterm_polynomial([(4, (3,), ((1, 4), (2, 5)))])
    assert single == DeltaPolynomial({(1, 2): 1})


def test_delta_polynomial_acts_on_elements(rng):
    q = 0.5
    A = random_element(rng, 2, 2)
    poly = DeltaPolynomial({(0, 0): 2, (0, 1): 1})  # 2 + Delta
    out = poly.apply(A, q)
    from qfock.wickalg import delta_q
    assert out.allclose(A.scale(2.0) + delta_q(A, q), 1e-12)


def test_quartic_2d_polynomial():
    assert counterterm_polynomial(quartic_2d_configs()) == \
        DeltaPolynomial({(0, 0): 2, (0, 1): 1})


def test_quartic_3d_polynomial():
    poly = counterterm_polynomial(quartic_3d_configs())
    target = DeltaPolynomial({(0, 0): 3, (1, 0): 2, (0, 1): 4, (1, 1): 4,
                              (0, 2): 2, (1, 2): 3})
    assert poly == target
    assert sum(poly.coeffs.values()) == 18
    assert poly.evaluate(1.0, 1.0) == 18


@pytest.mark.parametrize("q", [0.5, -0.7, 0.0])
@pytest.mark.parametrize("family", [quartic_2d_configs, quartic_3d_configs])
def test_counterterm_polynomial_matches_delta_r(family, q, rng):
    # a second route to each counterterm: a configuration is a full pairing of
    # the legs of a row with one insert slot, and its delta_R with unit outer
    # operators and no free legs is q^cr Δ_q^sp(A)
    d = 2
    A = random_element(rng, d, 3)
    one = WickElement.one(d)
    total = WickElement.zero(d)
    for _, inserts, pairs in family():
        labels = sorted({x for pair in pairs for x in pair} | set(inserts))
        slot = {x: i for i, x in enumerate(labels, 1)}
        pattern = InsertionPattern(INSERT if x in inserts else LEG for x in labels)
        pi = Pairing(tuple((slot[s], slot[t]) for s, t in pairs), pattern.leg_context())
        total = total + delta_R(pattern, pi, FockTensor.scalar(d, 1.0), [one, A, one], q)
    expect = counterterm_polynomial(family()).apply(A, q)
    assert (total - expect).max_abs_coeff() <= 1e-13 * expect.max_abs_coeff()


def test_counterterm_polynomial_reads_no_pairing_table():
    # a configuration is one fixed pairing: its statistics need no table
    before = pairing_table.cache_info()
    counterterm_polynomial(quartic_2d_configs() + quartic_3d_configs())
    assert pairing_table.cache_info() == before


def test_quartic_3d_matches_frozen_fixture():
    with open(DATA / "quartic3d_configs.json", encoding="utf-8") as fh:
        frozen = json.load(fh)["configs"]
    generated = [{"n_legs": n, "inserts": list(ins),
                  "pairs": [list(p) for p in pairs]}
                 for n, ins, pairs in quartic_3d_configs()]
    assert generated == frozen
