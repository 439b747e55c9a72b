import itertools
import math

import numpy as np
import pytest

from conftest import Q_GRID, random_element, random_tensor, time_limit
from pairing_reference import moment_by_pairings, reference_table
from qfock.combinat import (TABLE_CACHE_SIZE, IndexSet, Pairing, enumerate_pairings,
                            pairing_table, perfect_pairing_arrays)
from qfock.fock import (FockTensor, FockVector, TruncationError, field_operator,
                        operator_norm, wick_operator)
from qfock.polywick import InsertionPattern, restricted_wick
from qfock.wickalg import (WickElement, delta_q, expand_field_product, moment, multiply,
                           norm_constants, sum_chaos, to_operator, triple_norm,
                           vacuum_expectation, wick_product_vectors)


# -- constants ----------------------------------------------------------------


def test_norm_constants_free_case():
    nc = norm_constants(0.0)
    assert nc.C == 1.0 and nc.D == 1.0


def test_norm_constants_half():
    # independent evaluation of the infinite product at q = 1/2 in extended
    # precision, frozen: prod_{n>=1} (1 - 2^-n)^-1
    acc = np.longdouble(1.0)
    for n in range(1, 200):
        acc /= (np.longdouble(1.0) - np.longdouble(0.5) ** n)
    nc = norm_constants(0.5)
    assert nc.C == pytest.approx(float(acc), rel=1e-14)
    assert nc.C == pytest.approx(3.46275, rel=1e-5)
    assert norm_constants(-0.5).C == nc.C
    assert nc.D == 2.0


def test_norm_constants_memoised_and_bounded():
    for q in (-0.9, -0.5, 0.0, 0.5, 0.9, 0.99):
        assert norm_constants(q) == norm_constants.__wrapped__(q)
        assert norm_constants(q) is norm_constants(q)
    assert 0 < norm_constants.cache_info().maxsize <= 64


def test_norm_constants_reject_boundary():
    with pytest.raises(ValueError):
        norm_constants(1.0)
    with pytest.raises(ValueError):
        norm_constants(-1.0)


# -- Wick products and expansions ------------------------------------------------


def test_wick_product_single_vector(rng):
    f = rng.standard_normal(3)
    w = wick_product_vectors([f], 0.5)
    assert w.support() == (1,)
    assert np.allclose(w.chaos[1].data, f)


def test_wick_product_scalar_case():
    one = WickElement.one(2, scalar=3.5)
    assert vacuum_expectation(one) == 3.5
    assert one.support() == (0,)


def test_nan_coefficient_never_reads_as_zero():
    A = WickElement(2, {0: FockTensor.scalar(2, 0.0), 1: FockTensor(2, [np.nan, 0.0])})
    assert math.isnan(A.max_abs_coeff())
    assert not A.allclose(WickElement.zero(2))
    assert A.support() == (1,)
    assert sorted(A.trim().chaos) == [1]
    finite = WickElement(2, {0: FockTensor.scalar(2, 0.0), 1: FockTensor(2, [-3.0, 0.0])})
    assert finite.max_abs_coeff() == 3.0
    assert finite.support() == (1,) and sorted(finite.trim().chaos) == [1]
    assert WickElement.zero(2).max_abs_coeff() == 0.0


def test_wick_square_as_operator(rng):
    # degree-2 product equals the field square minus the scalar contraction
    d, N = 2, 3
    for q in (-0.5, 0.0, 0.5):
        f, g = rng.standard_normal(d), rng.standard_normal(d)
        op = to_operator(wick_product_vectors([f, g], q), q, N)
        square = field_operator(f, q, N).compose(field_operator(g, q, N))
        scalar = wick_operator(d, {0: float(np.dot(f, g))}, 0.0, N)
        secs = sorted(op.exact_sectors & square.exact_sectors & scalar.exact_sectors)
        outs = list(range(N + 1))
        m1 = op.restricted_matrix(secs, outs)
        m2 = square.restricted_matrix(secs, outs) - scalar.restricted_matrix(secs, outs)
        assert np.max(np.abs(m1 - m2)) <= 1e-12


def recursive_wick_matrix(fs, q, N):
    """The n-fold Wick product of the vectors by its defining recursion, as a
    dense matrix on sectors 0..N.

    Peels the leftmost vector: the product is the field of ``f_1`` times the
    product of the rest, minus ``q^{i-1}<f_1, f_i>`` times the product without
    ``f_1`` and ``f_i``, for each later slot i.  The fields are cut to sectors
    0..N, so the result is exact on input sectors up to ``N - n``.
    """
    sectors = range(N + 1)
    fields = [field_operator(f, q, N + 1).restricted_matrix(sectors, sectors) for f in fs]

    def product(slots):
        if not slots:
            return np.eye(len(fields[0]))
        head, rest = slots[0], slots[1:]
        out = fields[head] @ product(rest)
        for i, j in enumerate(rest):
            coeff = q ** i * float(np.dot(fs[head], fs[j]))
            if coeff:
                out -= coeff * product(rest[:i] + rest[i + 1:])
        return out

    return product(tuple(range(len(fs))))


def test_block_decomposition_matches_recursion(rng):
    # the Wick-block realisation agrees with the defining recursion
    d, N = 2, 7
    for q in (-0.9, -0.5, 0.0, 0.5, 0.9, 1.0, -1.0):
        for n in (1, 2, 3, 4):
            fs = [rng.standard_normal(d) for _ in range(n)]
            rec = recursive_wick_matrix(fs, q, N)
            blk = to_operator(wick_product_vectors(fs, q), q, N)
            secs = sorted(blk.exact_sectors)
            assert secs == list(range(N - n + 1))
            m1 = rec[:, :sum(d ** k for k in secs)]
            m2 = blk.restricted_matrix(secs, list(range(N + 1)))
            assert np.max(np.abs(m1 - m2)) <= 1e-10


def test_expand_field_product_two_and_three(rng):
    d = 3
    f, g = rng.standard_normal(d), rng.standard_normal(d)
    single = expand_field_product([f], 0.5)
    assert single.support() == (1,)
    assert np.allclose(single.coeff(1).data, f)
    for q in (-0.5, 0.5):
        two = expand_field_product([f, g], q)
        assert np.allclose(two.coeff(2).data, np.multiply.outer(f, g))
        assert vacuum_expectation(two) == pytest.approx(float(np.dot(f, g)))

        f3 = rng.standard_normal(d)
        three = expand_field_product([f, g, f3], q)
        expected1 = (np.dot(f, g) * f3 + q * np.dot(f, f3) * g + np.dot(g, f3) * f)
        assert np.allclose(three.coeff(1).data, expected1)
        assert np.allclose(three.coeff(3).data,
                           np.multiply.outer(np.multiply.outer(f, g), f3))


def pairing_sum_expansion(fs, q):
    """The product of fields as a sum over every pairing of the legs.

    A pairing with intertwining number ``crb`` contributes ``q^crb · ∏ <f_s, f_t>``
    times the tensor of its free legs.  Each coefficient is a ``math.fsum`` of
    its terms.  Summed in plain floats, the 2620 terms at n = 9, d = 1, q = 1
    drift by up to 3e-14 of the largest coefficient from the exact value (a
    pairing count times the product of the scalars), where the fold of
    ``multiply`` stays within 3e-16 of it.
    """
    fs = [np.asarray(f, dtype=float) for f in fs]
    n, d = len(fs), len(fs[0])
    terms: dict[int, list] = {}
    for pairs, cr, sp in pairing_table(n):
        coeff = q ** (cr + sp) * math.prod(float(np.dot(fs[s], fs[t])) for s, t in pairs)
        paired = {x for pair in pairs for x in pair}
        free = [f for i, f in enumerate(fs) if i not in paired]
        terms.setdefault(len(free), []).append(coeff * FockTensor.from_vectors(free).data
                                               if free else np.asarray(coeff))
    chaos = {k: FockTensor(d, np.reshape([math.fsum(c) for c in zip(*(t.ravel() for t in ts))],
                                         (d,) * k))
             for k, ts in terms.items()}
    return WickElement(d, chaos).trim()


@pytest.mark.parametrize("q", (0.0, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0))
def test_expand_field_product_matches_pairing_sum(q, rng):
    for d in (1, 2, 3):
        for n in range(1, 10):
            fs = [rng.standard_normal(d) for _ in range(n)]
            before = pairing_table.cache_info()
            out = expand_field_product(fs, q)
            assert pairing_table.cache_info() == before
            ref = pairing_sum_expansion(fs, q)
            assert out.support() == ref.support(), (d, n)
            assert (out - ref).max_abs_coeff() <= 1e-14 * ref.max_abs_coeff(), (d, n)


def test_expand_field_product_of_a_zero_vector_is_empty():
    assert expand_field_product([np.zeros(3)], 0.5).chaos == {}
    assert expand_field_product([np.zeros(3)] * 2, 0.5).chaos == {}


def test_expand_field_product_matches_operator_product(rng):
    d, N = 2, 5
    for q in Q_GRID:
        fs = [rng.standard_normal(d) for _ in range(4)]
        sym = to_operator(expand_field_product(fs, q), q, N + 3)
        direct = wick_operator(d, {0: 1.0}, 0.0, N + 3)
        for f in reversed(fs):
            direct = field_operator(f, q, N + 3).compose(direct)
        secs = sorted(sym.exact_sectors & direct.exact_sectors)
        m1 = sym.restricted_matrix(secs, list(range(N + 4)))
        m2 = direct.restricted_matrix(secs, list(range(N + 4)))
        assert np.max(np.abs(m1 - m2)) <= 1e-10


# -- multiplication ----------------------------------------------------------------


def test_multiply_rank_one(rng):
    d = 3
    f, g = rng.standard_normal(d), rng.standard_normal(d)
    for q in (-0.5, 0.7):
        prod = multiply(WickElement.from_vector(f), WickElement.from_vector(g), q)
        assert np.allclose(prod.coeff(2).data, np.multiply.outer(f, g))
        assert vacuum_expectation(prod) == pytest.approx(float(np.dot(f, g)))


def test_multiply_pure_square_closed_form():
    # squared two-fold product of a unit vector: the middle coefficient is
    # (1+q)^2 and the scalar is (1+q); at q=1 this is the Hermite identity
    e = np.array([1.0])
    for q in (-0.5, 0.0, 0.4, 1.0):
        A = wick_product_vectors([e, e], q)
        sq = multiply(A, A, q)
        assert float(sq.coeff(4).data.reshape(-1)[0]) == pytest.approx(1.0)
        assert float(sq.coeff(2).data.reshape(-1)[0]) == pytest.approx((1 + q) ** 2)
        assert vacuum_expectation(sq) == pytest.approx(1 + q)


def q_hermite_coefficients(m, n, q):
    """``{m+n-2k: [m k]_q [n k]_q [k]_q!}``, the q-Hermite linearisation.

    The q-binomials come from the Pascal rule ``[a k] = [a-1 k-1] + q^k [a-1 k]``,
    which divides by nothing, so q = -1 is covered.
    """
    N = max(m, n)
    binom = [[1.0] + [0.0] * N]
    for a in range(1, N + 1):
        prev = binom[-1]
        binom.append([1.0] + [prev[k - 1] + q ** k * prev[k] for k in range(1, N + 1)])
    factorial = [1.0]
    for k in range(1, N + 1):
        factorial.append(factorial[-1] * sum(q ** j for j in range(k)))
    return {m + n - 2 * k: binom[m][k] * binom[n][k] * factorial[k]
            for k in range(min(m, n) + 1)}


@pytest.mark.parametrize("q", (0.0, 0.5, -0.5, -0.9, 1.0, -1.0))
def test_multiply_matches_q_hermite_product_at_d1(q):
    # W(e^m) W(e^n) = sum_k [m k]_q [n k]_q [k]_q! W(e^(m+n-2k)) at d = 1
    # (Bozejko-Kummerer-Speicher); the time limit turns a product whose work
    # grows like 2^degree into a failure rather than a hang
    degrees = (0, 1, 2, 3, 5, 8, 13, 21, 29, 30)

    def W(m):
        return WickElement.from_tensor(FockTensor(1, np.ones((1,) * m)))

    with time_limit(10.0):
        for m in degrees:
            for n in degrees:
                ref = q_hermite_coefficients(m, n, q)
                got = multiply(W(m), W(n), q)
                assert set(got.support()) <= set(ref), (m, n)
                scale = max(abs(c) for c in ref.values())
                for k, c in ref.items():
                    gap = abs(float(got.coeff(k).data.reshape(-1)[0]) - c)
                    assert gap <= 1e-14 * scale, (m, n, k)


def test_multiply_unit_element(rng):
    A = random_element(rng, 2, 3)
    for q in (-0.9, 0.5):
        assert multiply(A, WickElement.one(2), q).allclose(A, 1e-14)
        assert multiply(WickElement.one(2), A, q).allclose(A, 1e-14)


def test_multiply_associative(rng):
    d = 2
    for q in (-0.5, 0.5, 0.9):
        A, B, C = (random_element(rng, d, 2) for _ in range(3))
        left = multiply(multiply(A, B, q), C, q)
        right = multiply(A, multiply(B, C, q), q)
        assert left.allclose(right, 1e-10)


def test_multiply_support_independent_of_q(rng):
    A = random_element(rng, 2, 3)
    B = random_element(rng, 2, 2)
    supports = {multiply(A, B, q).support() for q in Q_GRID}
    assert len(supports) == 1


def pairing_sum_product(A, B, q):
    """The product as a sum over cross pairings, one contraction per pairing.

    Terms are formed and added in ``np.longdouble``.  At q = -0.9 two chaos-6
    coefficients have thousands of pairings whose sum cancels to a thousandth
    of their sizes, so in double precision the sum itself is off by 2e-14
    relative; where ``longdouble`` is the x87 extended type it is not.
    """
    ql = np.longdouble(q)
    acc: dict[int, np.ndarray] = {}
    for m in sorted(A.chaos):
        F = A.chaos[m].data.astype(np.longdouble)
        for n in sorted(B.chaos):
            G = B.chaos[n].data.astype(np.longdouble)
            for pairs, cr, sp in reference_table((0,) * m + (1,) * n):
                if pairs:
                    axes = ([s for s, _ in pairs], [t - m for _, t in pairs])
                    data = np.tensordot(F, G, axes=axes)
                else:
                    data = np.multiply.outer(F, G)
                term = ql ** (cr + sp) * data
                acc[term.ndim] = acc[term.ndim] + term if term.ndim in acc else term
    return sum_chaos(A.d, (a.astype(float) for a in acc.values()))


@pytest.mark.parametrize("q", (-1.0, -0.9, -0.5, 0.0, 0.5, 0.9, 1.0))
def test_multiply_matches_pairing_sum(q, rng):
    for d in (1, 2, 3):
        for m in range(5):
            for n in range(5):
                A = WickElement.from_tensor(random_tensor(rng, d, m))
                B = WickElement.from_tensor(random_tensor(rng, d, n))
                ref = pairing_sum_product(A, B, q)
                gap = (multiply(A, B, q) - ref).max_abs_coeff()
                assert gap <= 1e-14 * ref.max_abs_coeff(), (d, m, n)
        A, B = random_element(rng, d, 3), random_element(rng, d, 3)
        ref = pairing_sum_product(A, B, q)
        assert (multiply(A, B, q) - ref).max_abs_coeff() <= 1e-14 * ref.max_abs_coeff()
    for d in (1, 2):
        for m in (5, 6):
            for n in (5, 6):
                A = WickElement.from_tensor(random_tensor(rng, d, m))
                B = WickElement.from_tensor(random_tensor(rng, d, n))
                ref = pairing_sum_product(A, B, q)
                gap = (multiply(A, B, q) - ref).max_abs_coeff()
                assert gap <= 1e-14 * ref.max_abs_coeff(), (d, m, n)


def test_cross_pairing_statistics_factorise():
    # cr counts the non-inversions of the arcs' bijection S -> T; sp splits
    # into free left legs after each s in S and free right legs before each t
    # in T
    for m in range(5):
        for n in range(5):
            for pairs, cr, sp in reference_table((0,) * m + (1,) * n):
                S = [s for s, _ in pairs]
                T = [t - m for _, t in pairs]
                free_left = [x for x in range(m) if x not in S]
                free_right = [x for x in range(n) if x not in T]
                assert S == sorted(S)
                assert cr == sum(1 for i, j in itertools.combinations(range(len(T)), 2)
                                 if T[i] < T[j])
                assert sp == (sum(1 for s in S for x in free_left if x > s)
                              + sum(1 for t in T for x in free_right if x < t))


def test_multiply_matches_matrix_oracle(rng):
    from qfock.verify import oracle_deviation
    for q in Q_GRID:
        for _ in range(4):
            A = random_element(rng, 2, 3)
            B = random_element(rng, 2, 3)
            assert oracle_deviation(A, B, q, 8) <= 1e-10


# -- moments and state ---------------------------------------------------------------


def test_moment_fourth_and_sixth():
    e = np.array([1.0])
    for q in Q_GRID + (1.0, -1.0):
        assert moment([e] * 4, q) == pytest.approx(2 + q)
    assert moment([e] * 6, 1.0) == pytest.approx(15.0)
    # free case: Catalan numbers (non-crossing pairings only)
    assert moment([e] * 6, 0.0) == pytest.approx(5.0)
    assert moment([e] * 8, 0.0) == pytest.approx(14.0)
    assert moment([e] * 8, 1.0) == pytest.approx(105.0)


def test_moment_odd_vanishes(rng):
    fs = [rng.standard_normal(2) for _ in range(5)]
    assert moment(fs, 0.5) == 0.0


def test_moment_is_the_pairing_sum_bit_for_bit(rng):
    # inputs scaled by 1e150 overflow in their terms and give inf and nan
    with np.errstate(all="ignore"):
        for n in range(13):
            for d in (1, 2, 3):
                for q in (0.0, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0):
                    for scale in (1.0, 1e150):
                        fs = [scale * rng.standard_normal(d) for _ in range(n)]
                        value = moment(fs, q)
                        assert type(value) is float
                        assert (np.float64(value).tobytes()
                                == np.float64(moment_by_pairings(fs, q)).tobytes())
    # a sum of -0.0 terms starts at 0.0
    assert math.copysign(1.0, moment([np.array([0.0]), np.array([-1.0])], 0.5)) == 1.0


def test_moment_crossing_numbers_are_contiguous():
    # moment takes q ** c for every c up to the largest crossing number
    for n in range(2, 13, 2):
        assert set(perfect_pairing_arrays(n)[0].tolist()) == set(range(n // 2 * (n // 2 - 1) // 2 + 1))


def test_moment_matches_matrix_vacuum(rng):
    from qfock.fock import field_operator, FockVector
    d, N = 2, 6
    for q in (-0.9, 0.5, 1.0):
        fs = [rng.standard_normal(d) for _ in range(4)]
        vec = FockVector.vacuum(d)
        for f in reversed(fs):
            vec = field_operator(f, q, N).apply(vec)
        assert moment(fs, q) == pytest.approx(float(vec.sector(0)), abs=1e-12)


def test_vacuum_expectation_basics(rng):
    assert vacuum_expectation(WickElement.one(2)) == 1.0
    pure = WickElement.from_tensor(random_tensor(rng, 2, 3))
    assert vacuum_expectation(pure) == 0.0
    e = np.eye(2)[0]
    expanded = expand_field_product([e] * 4, 0.5)
    assert vacuum_expectation(expanded) == pytest.approx(moment([e] * 4, 0.5))


# -- the chaos-scaling map ---------------------------------------------------------------


def test_delta_q_scalings(rng):
    one = WickElement.one(3)
    assert delta_q(one, 0.5).allclose(one, 0)
    pure = WickElement.from_tensor(random_tensor(rng, 3, 2))
    out = delta_q(pure, 0.5)
    assert np.allclose(out.coeff(2).data, 0.25 * pure.coeff(2).data)
    # at q=0 only the scalar part survives
    mixed = random_element(rng, 3, 3)
    proj = delta_q(mixed, 0.0)
    assert proj.support() == (0,)
    assert vacuum_expectation(proj) == vacuum_expectation(mixed)


# -- the graded norm ------------------------------------------------------------------------


def test_triple_norm_pure_chaos(rng):
    for q in (-0.5, 0.0, 0.5):
        nc = norm_constants(q)
        for k in range(4):
            F = random_tensor(rng, 2, k)
            A = WickElement.from_tensor(F) if k else WickElement.one(2, float(F.data))
            assert triple_norm(A, q) == pytest.approx(
                (k + 1) * nc.C ** 1.5 * nc.D ** k * F.norm())


def test_triple_norm_unit_at_half():
    assert triple_norm(WickElement.one(2), 0.5) == pytest.approx(
        norm_constants(0.5).C ** 1.5)


def test_triple_norm_free_case_weights(rng):
    F = random_tensor(rng, 2, 3)
    assert triple_norm(WickElement.from_tensor(F), 0.0) == pytest.approx(4 * F.norm())


def test_triple_norm_boundary_error(rng):
    A = random_element(rng, 2, 1)
    with pytest.raises(ValueError, match="norm undefined"):
        triple_norm(A, 1.0)


def test_norm_fails_closed_near_one():
    # C overflows a float from |q| = 0.9977 on, and C^{3/2} already at 0.9972
    e = WickElement.from_vector(np.array([1.0, 0.0]))
    assert triple_norm(e, 0.995) == 1.1424365406696847e+214
    for q in (0.9972, -0.9972):
        with pytest.raises(ValueError, match="does not fit a float"):
            triple_norm(e, q)
    for q in (0.999, -0.999):
        with pytest.raises(ValueError, match=f"overflows a float at q = {q}"):
            norm_constants(q)
        with pytest.raises(ValueError, match="overflows"):
            triple_norm(WickElement.zero(2), q)


def test_submultiplicative_sample(rng):
    for q in (-0.9, -0.5, 0.5, 0.9):
        for _ in range(50):
            A = random_element(rng, 2, 3)
            B = random_element(rng, 2, 3)
            lhs = triple_norm(multiply(A, B, q), q)
            assert lhs <= triple_norm(A, q) * triple_norm(B, q) + 1e-9


def test_product_bound_for_pure_chaos(rng):
    # graded-norm expansion of a product of pure chaos elements
    for q in (-0.5, 0.5):
        nc = norm_constants(q)
        for n, m in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            G = random_tensor(rng, 2, m)
            H = random_tensor(rng, 2, n)
            prod = multiply(WickElement.from_tensor(G), WickElement.from_tensor(H), q)
            lhs = triple_norm(prod, q)
            rhs = (n + 1) * (m + 1) * nc.C ** 3 * nc.D ** (n + m) * G.norm() * H.norm()
            assert lhs <= rhs + 1e-9


def test_weighted_contraction_count_bound():
    # sum over inter-block pairings of (|free|+1) D^{|free|} |q|^crb is at most
    # D^{|L|} times the product of (block+1) sizes; exhaustive over all
    # partitioned sets with at most 6 elements in at most 3 blocks
    import itertools
    layouts = [sizes for n_blocks in (1, 2, 3)
               for sizes in itertools.product(range(7), repeat=n_blocks)
               if sum(sizes) <= 6]
    for q in (-0.9, -0.5, 0.5, 0.9):
        D = norm_constants(q).D
        for sizes in layouts:
            classes = tuple(b for b, size in enumerate(sizes) for _ in range(size))
            total = 0.0
            for pairs, cr, sp in reference_table(classes):
                free = len(classes) - 2 * len(pairs)
                total += (free + 1) * D ** free * abs(q) ** (cr + sp)
            bound = D ** len(classes) * np.prod([s + 1 for s in sizes])
            assert total <= bound + 1e-9


# -- matrix realisation ------------------------------------------------------------------


def test_to_operator_reproduces_chaos_on_vacuum(rng):
    d, N = 2, 5
    for q in (-0.5, 0.5):
        A = random_element(rng, d, 3)
        vec = to_operator(A, q, N).apply(FockVector.vacuum(d))
        for k, F in A.chaos.items():
            assert np.max(np.abs(vec.sector(k) - F.data)) <= 1e-12


def test_to_operator_single_vector(rng):
    d, N = 3, 4
    f = rng.standard_normal(d)
    from qfock.fock import field_operator
    a = to_operator(WickElement.from_vector(f), 0.5, N)
    b = field_operator(f, 0.5, N)
    secs = sorted(a.exact_sectors & b.exact_sectors)
    assert np.max(np.abs(a.restricted_matrix(secs, list(range(N + 1)))
                         - b.restricted_matrix(secs, list(range(N + 1))))) <= 1e-13


def test_to_operator_cutoff_too_small(rng):
    A = random_element(rng, 2, 4)
    with pytest.raises(TruncationError):
        to_operator(A, 0.5, 3)


def test_wick_product_norm_bound(rng):
    # ||xi^{on}(F)|| <= (n+1) D^n C ||F|| on truncated sectors
    d, N = 2, 6
    for q in (-0.5, 0.5):
        nc = norm_constants(q)
        for n in (1, 2, 3):
            F = random_tensor(rng, d, n)
            op = to_operator(WickElement.from_tensor(F), q, N)
            est = operator_norm(op, sorted(op.exact_sectors))
            assert est <= (n + 1) * nc.D ** n * nc.C * F.norm() + 1e-9


def test_free_wick_square_norm_grows_to_three():
    # the free Wick square of a unit vector has limit spectrum [-1, 3]; the
    # truncated estimate increases toward 3 as the cutoff grows
    e = np.array([1.0])
    prev = 0.0
    estimates = []
    for N in (6, 12, 24, 48, 96):
        op = to_operator(wick_product_vectors([e, e], 0.0), 0.0, N)
        est = operator_norm(op, sorted(op.exact_sectors))
        assert est >= prev - 1e-12
        prev = est
        estimates.append(est)
    assert estimates[-1] < 3.0
    assert estimates[-1] == pytest.approx(3.0, rel=2e-2)


# -- serialization -----------------------------------------------------------------------------


def test_wick_element_json_roundtrip(rng):
    A = random_element(rng, 3, 2)
    back = WickElement.from_json(A.to_json())
    assert back.allclose(A, 0)


# -- the pairing-table cache -------------------------------------------------------------------


def test_pairing_table_cache_is_bounded_and_keyed_by_shape(rng):
    # runs after the symbolic tests (files are collected in name order)
    info = pairing_table.cache_info()
    assert info.maxsize == TABLE_CACHE_SIZE
    assert info.currsize <= TABLE_CACHE_SIZE

    def read_tables(d, q):
        moment([rng.standard_normal(d) for _ in range(6)], q)
        enumerate_pairings(IndexSet.range(5))

    read_tables(2, 0.5)
    misses = pairing_table.cache_info().misses
    view_misses = perfect_pairing_arrays.cache_info().misses
    # other q and d on the same shapes: no new table
    for d, q in ((1, -0.9), (3, -0.5), (4, 0.0), (6, 0.7)):
        read_tables(d, q)
    after = pairing_table.cache_info()
    assert after.misses == misses
    assert perfect_pairing_arrays.cache_info().misses == view_misses
    # moment reads the array view, bounded and keyed by n alone, and adds no tuple table
    views = perfect_pairing_arrays.cache_info()
    assert views.maxsize == TABLE_CACHE_SIZE and views.currsize <= TABLE_CACHE_SIZE
    perfect_pairing_arrays.cache_clear()  # a cold view: built without the tuple table
    moment([rng.standard_normal(2) for _ in range(6)], 0.5)
    assert pairing_table.cache_info() == after
    assert perfect_pairing_arrays.cache_info().currsize == 1
    for a in perfect_pairing_arrays(6):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    # the two products and the expansion read no table at all
    multiply(random_element(rng, 2, 3), random_element(rng, 2, 3), 0.5)
    pattern = InsertionPattern.from_string("LILIL")
    restricted_wick(pattern, Pairing.empty(pattern.leg_context()), random_tensor(rng, 2, 3),
                    [WickElement.from_tensor(random_tensor(rng, 2, k)) for k in (2, 1)], 0.5)
    expand_field_product([rng.standard_normal(2) for _ in range(5)], 0.5)
    assert pairing_table.cache_info() == after
