import itertools
import pickle
from math import comb, perm

import numpy as np
import pytest

from pairing_reference import (all_pairings, contraction_stats_by_pairs, reference_table,
                               restricted_wick_by_pairings, stats)
from qfock.combinat import (CosetRep, IndexSet, Pairing, contraction_stats, coset_reps,
                            double_factorial_odd, enumerate_pairings, mirror_double,
                            pairing_table, perfect_pairing_arrays)
from qfock.fock import FockTensor
from qfock.polywick import INSERT, LEG, InsertionPattern, counterterm_monomial, restricted_wick
from qfock.wickalg import WickElement, norm_constants


# -- enumeration ---------------------------------------------------------------


def test_pairing_counts_small():
    assert len(enumerate_pairings(IndexSet.range(4), 2)) == 3
    assert len(enumerate_pairings(IndexSet.range(6), 3)) == 15
    all3 = enumerate_pairings(IndexSet.range(3))
    assert [p.pairs for p in all3] == [(), ((1, 2),), ((1, 3),), ((2, 3),)]


def test_pairing_counts_formula():
    for n in range(9):
        ctx = IndexSet.range(n)
        total = len(enumerate_pairings(ctx))
        expected = sum(comb(n, 2 * k) * double_factorial_odd(k)
                       for k in range(n // 2 + 1))
        assert total == expected
        for k in range(n // 2 + 1):
            assert len(enumerate_pairings(ctx, k)) == comb(n, 2 * k) * double_factorial_odd(k)


def test_enumeration_is_lexicographic_and_unique():
    ps = enumerate_pairings(IndexSet.range(5))
    forms = [p.pairs for p in ps]
    assert forms == sorted(forms)
    assert len(set(forms)) == len(forms)


def test_pairing_respects_arbitrary_labels():
    ctx = IndexSet((2, 5, 9))
    assert [p.pairs for p in enumerate_pairings(ctx)] == \
        [(), ((2, 5),), ((2, 9),), ((5, 9),)]


def test_pairing_validation():
    ctx = IndexSet.range(4)
    with pytest.raises(ValueError, match=r"pair \(2, 1\) must have s < t"):
        Pairing(((2, 1),), ctx)
    with pytest.raises(ValueError, match=r"pair \(1, 5\) not inside the context"):
        Pairing(((1, 5),), ctx)
    with pytest.raises(ValueError, match="pairs must be pairwise disjoint"):
        Pairing(((1, 2), (2, 3)), ctx)
    # the checks run in this order: s < t before the context, the context before disjointness
    with pytest.raises(ValueError, match="must have s < t"):
        Pairing(((1, 2), (9, 7)), ctx)
    with pytest.raises(ValueError, match="not inside the context"):
        Pairing(((1, 2), (2, 9)), ctx)
    with pytest.raises(ValueError, match="not inside the context"):
        Pairing(((1, 3),), IndexSet((1, 2, 4)))


def test_labels_become_int():
    ctx = IndexSet((np.int64(2), 5, np.int64(9)))
    assert all(type(x) is int for x in ctx.elements)
    assert np.int64(5) in ctx and 5 in ctx and 4 not in ctx
    p = Pairing(((np.int64(5), np.int64(9)),), ctx)
    assert p.pairs == ((5, 9),) and all(type(x) is int for x in p.pairs[0])


def test_index_set_identity_ignores_the_index():
    a, b = IndexSet((2, 5, 9)), IndexSet((np.int64(2), 5, 9))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "IndexSet(elements=(2, 5, 9))"
    assert a != IndexSet((2, 5)) and a._index == {2: 0, 5: 1, 9: 2}
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a) and back._index == a._index
    assert a.__reduce__() == (IndexSet, ((2, 5, 9),))
    p = Pairing(((2, 9),), a)
    assert pickle.loads(pickle.dumps(p)) == p
    assert not hasattr(a, "__dict__") and not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        a.elements = (1,)


# -- the pairing engine and the restricted product against brute force --------------


def _check_table(n, k=None):
    table = pairing_table(n, k)
    forms = [pairs for pairs, _, _ in table]
    assert forms == sorted(set(forms))
    assert table == tuple(e for e in reference_table(tuple(range(n)))
                          if k is None or len(e[0]) == k)
    return table


def _compositions(n):
    """Every way to cut ``0..n-1`` into consecutive nonempty blocks, as block sizes."""
    for cuts in itertools.product((False, True), repeat=max(n - 1, 0)):
        sizes, size = [], 1
        for cut in cuts:
            if cut:
                sizes.append(size)
                size = 0
            size += 1
        yield sizes + [size] if n else []


def _involutions(n):
    a, b = 1, 1
    for j in range(1, n):
        a, b = b, b + j * a
    return b


def test_engine_one_class_counts_order_and_stats():
    # every position its own operand: all pairings
    for n in range(9):
        table = _check_table(n)
        assert len(table) == _involutions(n)
        for k in range(n // 2 + 2):
            assert _check_table(n, k) == tuple(e for e in table if len(e[0]) == k)


def test_engine_cross_counts():
    # the reference's class rule: cross pairings of two blocks
    for m in range(9):
        for n in range(9 - m):
            table = reference_table((0,) * m + (1,) * n)
            assert len(table) == sum(comb(m, k) * perm(n, k) for k in range(min(m, n) + 1))


def test_engine_interblock_layouts():
    # the pairings whose arcs join different blocks, statistics included, are
    # the engine's all-pairings entries whose arcs do
    for n in range(9):
        for sizes in _compositions(n):
            classes = tuple(b for b, size in enumerate(sizes) for _ in range(size))
            assert reference_table(classes) == tuple(
                e for e in pairing_table(n) if all(classes[s] != classes[t] for s, t in e[0]))


def _restricted_layouts(n):
    """Legs (class 0) and insert blocks (classes 1, 2, ...) in every order over n rows."""
    def rec(prefix, last_insert):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        yield from rec(prefix + [0], last_insert)
        if prefix and prefix[-1] == last_insert > 0:
            yield from rec(prefix + [last_insert], last_insert)
        yield from rec(prefix + [last_insert + 1], last_insert + 1)

    return rec([], 0)


def _check_restricted_layout(classes, rng, contract, dims=(1, 2, 3)):
    """``restricted_wick`` against the per-pairing reference on one layout.

    Each insert block is one INSERT slot whose tensor has an axis per row.
    With ``contract``, every pairing of the legs is the prior contraction;
    otherwise only the empty one.
    """
    pattern = InsertionPattern(LEG if c == 0 else INSERT
                               for i, c in enumerate(classes) if c == 0 or c not in classes[:i])
    degrees = [classes.count(j) for j in range(1, max(classes, default=0) + 1)]
    ctx = pattern.leg_context()
    pis = enumerate_pairings(ctx) if contract else [Pairing.empty(ctx)]
    for pi, d in itertools.product(pis, dims):
        F = FockTensor(d, rng.standard_normal((d,) * len(pi.free())))
        Gs = [FockTensor(d, rng.standard_normal((d,) * k)) for k in degrees]
        for q in (0.0, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0):
            ref = restricted_wick_by_pairings(pattern, pi, F, Gs, q)
            As = [WickElement.from_tensor(G) for G in Gs]
            gap = (restricted_wick(pattern, pi, F, As, q) - ref).max_abs_coeff()
            assert gap <= 1e-14 * ref.max_abs_coeff(), (classes, pi.pairs, d, q)


def test_engine_restricted_layouts(rng):
    # the layouts of 6 rows, the legs all free, at d = 1, 2 (at d = 3 they
    # would take several seconds more)
    before = pairing_table.cache_info()
    for classes in _restricted_layouts(6):
        _check_restricted_layout(classes, rng, contract=False, dims=(1, 2))
    assert pairing_table.cache_info() == before


def test_engine_restricted_layouts_with_contracted_legs(rng):
    # every layout of 1 to 5 rows with every prior contraction of its legs,
    # which keep their positions in the row and count towards the weight
    for n in range(1, 6):
        for classes in _restricted_layouts(n):
            _check_restricted_layout(classes, rng, contract=True)


def test_engine_counterterm_layouts():
    # every leg paired, the inserts free: (q power, Δ power) is (cr, sp)
    for n in range(8):
        for inserts in itertools.product((False, True), repeat=n):
            legs = tuple(i for i in range(n) if not inserts[i])
            slots = [i for i in range(n) if inserts[i]]
            for pi in all_pairings(legs):
                if 2 * len(pi) == len(legs):
                    assert counterterm_monomial(len(legs), slots, pi) == stats(pi, n)


def test_engine_rejects_bad_arguments():
    with pytest.raises(ValueError, match="nonnegative"):
        pairing_table(2, -1)
    with pytest.raises(ValueError, match="even n, got 3"):
        perfect_pairing_arrays(3)


# -- statistics -----------------------------------------------------------------


def test_intertwining_example():
    p = Pairing(((1, 4), (2, 5)), IndexSet.range(6))
    assert contraction_stats(p) == (1, 2, 3)


def test_stats_trivia():
    assert contraction_stats(Pairing.empty(IndexSet.range(5))) == (0, 0, 0)
    assert contraction_stats(Pairing(((1, 3),), IndexSet.range(3))) == (0, 1, 1)


def test_stats_match_the_table_and_the_definition():
    for n in range(11):
        ctx = IndexSet.range(n)
        for k in range(n // 2 + 1):
            table = pairing_table(n, k)
            pairings = enumerate_pairings(ctx, k)
            assert len(pairings) == len(table)
            for p, (_, cr, sp) in zip(pairings, table):
                assert contraction_stats(p) == (cr, sp, cr + sp) == contraction_stats_by_pairs(p)


def test_stats_on_a_sparse_context():
    ctx = IndexSet((2, 5, 9, 11, 20, 31))
    pairings = enumerate_pairings(ctx)
    assert len(pairings) == len(pairing_table(6))
    for p, (_, cr, sp) in zip(pairings, pairing_table(6)):
        assert contraction_stats(p) == (cr, sp, cr + sp) == contraction_stats_by_pairs(p)


def test_perfect_crossing_numbers_match_the_definition():
    # moment's oracle reads the table's cr, which the same arc pass counts, so
    # the arrays' cr is checked against the definition here
    for n in range(0, 13, 2):
        cr, S, T = perfect_pairing_arrays(n)
        rows = [pairs for pairs, _, _ in pairing_table(n, n // 2)]
        assert [tuple(zip(s, t)) for s, t in zip(S.T.tolist(), T.T.tolist())] == rows
        assert cr.tolist() == [stats(arcs, n)[0] for arcs in rows]


def test_doubling_identity_exhaustive():
    # crb(p) equals half the crossing number of the mirror-doubled pairing
    for n in range(7):
        for p in enumerate_pairings(IndexSet.range(n)):
            doubled = mirror_double(p)
            assert doubled.free() == ()
            assert 2 * contraction_stats(p)[2] == contraction_stats(doubled)[0]


def test_crb_concatenation_additivity():
    # two pairings on consecutive label ranges do not intertwine
    for n, m in itertools.product(range(5), range(5)):
        left_ctx = IndexSet.range(n)
        right_ctx = IndexSet(tuple(range(n + 1, n + m + 1)))
        big = IndexSet.range(n + m)
        for pl in enumerate_pairings(left_ctx):
            for pr in enumerate_pairings(right_ctx):
                merged = Pairing(pl.pairs + pr.pairs, big)
                assert contraction_stats(merged)[2] == \
                    contraction_stats(pl)[2] + contraction_stats(pr)[2]


def test_crb_append_recursion():
    # adding a pair (j, n+1) raises crb by the number of free labels after j
    for n in range(1, 7):
        big = IndexSet.range(n + 1)
        for p in enumerate_pairings(IndexSet.range(n)):
            free = set(p.free())
            for j in sorted(free):
                grown = Pairing(p.pairs + ((j, n + 1),), big)
                count = sum(1 for x in free if j < x <= n)
                assert contraction_stats(grown)[2] == contraction_stats(p)[2] + count


# -- layouts of inter-block and restricted pairings ---------------------------------


def test_interblock_pairings():
    # two blocks {0, 1} and {2, 3}
    got = [pairs for pairs, _, _ in reference_table((0, 0, 1, 1))]
    assert got == [(), ((0, 2),), ((0, 2), (1, 3)), ((0, 3),), ((0, 3), (1, 2)),
                   ((1, 2),), ((1, 3),)]

    assert [pairs for pairs, _, _ in reference_table((0,) * 4)] == [()]
    assert [pairs for pairs, _, _ in reference_table((0, 1))] == \
        [(), ((0, 1),)]


def test_restricted_pairings():
    # legs are class 0 and may not pair with each other; each insert block has its own class
    got = {pairs for pairs, _, _ in reference_table((0, 1, 0))}
    assert got == {(), ((0, 1),), ((1, 2),)}

    got = {pairs for pairs, _, _ in reference_table((0, 1, 1, 0))}
    assert got == {(), ((0, 1),), ((0, 2),), ((1, 3),), ((2, 3),),
                   ((0, 1), (2, 3)), ((0, 2), (1, 3))}

    # an empty insert block between two legs
    assert [pairs for pairs, _, _ in reference_table((0, 0))] == [()]


# -- coset representatives ---------------------------------------------------------


def test_coset_reps_examples():
    assert [(r.permutation, r.inversions) for r in coset_reps(3, 1)] == \
        [((1, 2, 3), 0), ((2, 1, 3), 1), ((2, 3, 1), 2)]
    reps = {r.permutation: r.inversions for r in coset_reps(4, 2)}
    assert len(reps) == 6
    assert reps[(3, 1, 4, 2)] == 3
    for n in range(6):
        assert coset_reps(n, 0) == [CosetRep(tuple(range(1, n + 1)), 0)]
    with pytest.raises(ValueError):
        coset_reps(3, 4)


def _inversions(perm):
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[j] < perm[i])


def test_coset_reps_minimize_inversions_in_class():
    # the class of a representative is generated by permuting the values
    # 1..k among themselves and k+1..n among themselves
    for n in range(1, 6):
        for k in range(n + 1):
            for rep in coset_reps(n, k):
                base = rep.permutation
                assert rep.inversions == _inversions(base)
                for lo in itertools.permutations(range(1, k + 1)):
                    for hi in itertools.permutations(range(k + 1, n + 1)):
                        relabel = dict(zip(range(1, k + 1), lo))
                        relabel.update(zip(range(k + 1, n + 1), hi))
                        other = tuple(relabel[v] for v in base)
                        assert _inversions(other) >= rep.inversions
    for n in range(11):
        for k in range(n + 1):
            for rep in coset_reps(n, k):
                assert rep.inversions == _inversions(rep.permutation)


def test_q_binomial_sum_bounded_by_constant():
    for q in (-0.9, -0.5, 0.0, 0.5, 0.9):
        C = norm_constants(q).C
        for n in range(9):
            for k in range(n + 1):
                total = sum(q ** r.inversions for r in coset_reps(n, k))
                assert abs(total) <= C + 1e-12
