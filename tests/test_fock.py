import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

import qfock.fock
import qfock.polywick
import qfock.verify
import qfock.wickalg
from conftest import Q_GRID, inverse_perm, random_element, random_tensor, time_limit
from qfock.combinat import coset_reps
from qfock.fock import (FockTensor, FockVector, TruncatedOperator, TruncationError,
                        annihilation, creation, field_operator, operator_norm,
                        pq_apply, pq_matrix, q_inner, wick_block_matrix, wick_operator,
                        _shuffle_weighted_tensor)
from qfock.wickalg import norm_constants, to_operator


# -- the q-symmetrizer ----------------------------------------------------------


def test_pq_degree_one_is_identity():
    assert np.allclose(pq_matrix(3, 1, 0.7), np.eye(3))


def test_pq_two_particle_eigenvalues():
    # on span{e1⊗e2, e2⊗e1} the symmetrizer is Id + q·swap
    q = 0.3
    vals = sorted(np.linalg.eigvalsh(pq_matrix(2, 2, q)))
    assert np.allclose(sorted(set(np.round(vals, 12))), [1 - q, 1 + q])


def test_pq_three_particle_spectrum_bounds():
    q = 0.5
    P = pq_matrix(3, 3, q)
    vals = np.linalg.eigvalsh(P)
    assert np.min(vals) > 0
    assert np.max(vals) <= (1.0 / (1.0 - q)) ** 3 + 1e-12


@pytest.mark.parametrize("q", [-0.9, -0.5, 0.5, 0.9])
def test_pq_positivity_and_qfactorial_norm(q):
    # positive definite for |q|<1, norm below D^n; the |q|-factorial product
    # (index running 1..n) is attained for q >= 0, and for q < 0 once the
    # one-particle dimension admits the alternating extremizer (d >= n)
    for d, n in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]:
        vals = np.linalg.eigvalsh(pq_matrix(d, n, q))
        assert np.min(vals) > 0
        product = np.prod([(1 - abs(q) ** k) / (1 - abs(q)) for k in range(1, n + 1)])
        top = np.max(np.abs(vals))
        assert top <= product + 1e-9
        if q >= 0 or d >= n:
            assert top == pytest.approx(product, rel=1e-9)
        assert top <= (1 - abs(q)) ** (-n) + 1e-9


def test_pq_degenerate_at_plus_minus_one():
    for q in (1.0, -1.0):
        vals = np.linalg.eigvalsh(pq_matrix(2, 2, q))
        assert np.min(vals) >= -1e-12
        assert np.min(np.abs(vals)) <= 1e-12


def test_pq_apply_matches_matrix(rng):
    d, n, q = 2, 3, -0.4
    X = rng.standard_normal((d,) * n)
    assert np.allclose(pq_apply(X, q).reshape(-1), pq_matrix(d, n, q) @ X.reshape(-1))


@pytest.mark.parametrize("q", [0.5, -0.7, 0.9])
def test_pq_at_d1_is_the_q_factorial_past_64_axes(q):
    # at d = 1 the symmetrizer is the scalar [n]_q!; no degree meets numpy's axis limit
    for n in (63, 64, 70):
        factorial = np.prod([(1 - q ** k) / (1 - q) for k in range(1, n + 1)])
        assert pq_matrix(1, n, q) == pytest.approx(np.full((1, 1), factorial), rel=1e-12)
    # the fq norm of the field on sectors 0..69 is that of its Jacobi matrix, whose
    # entries sqrt([n]_q) join the orthonormal sectors n - 1 and n
    jacobi = np.zeros((71, 70))
    for n in range(1, 71):
        jacobi[n, n - 1] = np.sqrt((1 - q ** n) / (1 - q))
        if n < 70:
            jacobi[n - 1, n] = jacobi[n, n - 1]
    got = operator_norm(field_operator([1.0], q, 70), range(70), metric="fq", q=q)
    assert got == pytest.approx(np.linalg.norm(jacobi, 2), rel=1e-12)


def _apply_partial_pq(data, axes, q):
    """q-symmetrize the given tensor axes, leaving the others alone."""
    out = np.zeros_like(data)
    for perm in itertools.permutations(axes):
        rel = [axes.index(p) for p in perm]
        inv = sum(1 for i in range(len(rel)) for j in range(i + 1, len(rel))
                  if rel[j] < rel[i])
        full = list(range(data.ndim))
        for a, p in zip(axes, perm):
            full[a] = p
        out += q ** inv * np.transpose(data, full)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pq_apply_and_matrix_match_the_permutation_sum(d, rng):
    # both run the one coset recursion; the reference sums all n! permutations
    for n, q in itertools.product(range(5), (0.0, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0)):
        X = rng.standard_normal((d,) * n)
        want = _apply_partial_pq(X, list(range(n)), q)
        assert np.allclose(pq_apply(X, q), want, rtol=0, atol=1e-12), (n, q)
        basis = np.eye(d ** n).reshape((d ** n,) + (d,) * n)
        columns = [_apply_partial_pq(e, list(range(n)), q).reshape(-1) for e in basis]
        assert np.allclose(pq_matrix(d, n, q), np.stack(columns, axis=1),
                           rtol=0, atol=1e-12), (n, q)


def test_pq_coset_factorization(rng):
    # P_q = sum over minimum-inversion representatives of the permutation
    # action applied after the blockwise sub-symmetrizers
    q = 0.6
    for d, n, k in [(2, 3, 1), (2, 4, 2), (3, 3, 2)]:
        X = rng.standard_normal((d,) * n)
        expected = pq_apply(X, q)
        got = np.zeros_like(expected)
        for rep in coset_reps(n, k):
            term = _apply_partial_pq(X, list(range(k)), q)
            term = _apply_partial_pq(term, list(range(k, n)), q)
            got += q ** rep.inversions * np.transpose(term, [v - 1 for v in rep.permutation])
        assert np.allclose(got, expected)


# -- inner product -----------------------------------------------------------------


def test_q_inner_orthonormal_pair():
    e1, e2 = np.eye(2)
    F = FockTensor.from_vectors([e1, e2])
    assert q_inner(F, F, 0.8) == pytest.approx(1.0)


def test_q_inner_repeated_vector():
    e1 = np.eye(2)[0]
    F = FockTensor.from_vectors([e1, e1])
    for q in Q_GRID:
        assert q_inner(F, F, q) == pytest.approx(1 + q)


def test_q_inner_cross_degree_and_dim_mismatch():
    e1 = np.eye(2)[0]
    assert q_inner(FockTensor.from_vectors([e1]),
                   FockTensor.from_vectors([e1, e1]), 0.5) == 0.0
    with pytest.raises(ValueError):
        q_inner(FockTensor.from_vectors([e1]),
                FockTensor.from_vectors([np.eye(3)[0]]), 0.5)


# -- creation / annihilation / field ------------------------------------------------


def test_creation_on_vacuum_and_word():
    d = 3
    e1, e2 = np.eye(d)[0], np.eye(d)[1]
    out = creation(e1, 4).apply(FockVector.vacuum(d))
    assert np.allclose(out.sector(1), e1)
    out = creation(e1, 4).apply(FockVector(d, {1: e2}))
    assert np.allclose(out.sector(2), np.multiply.outer(e1, e2))


def test_annihilation_examples():
    d, q, N = 3, 0.45, 4
    e1, e2 = np.eye(d)[0], np.eye(d)[1]
    an = annihilation(e1, q, N)
    assert an.apply(FockVector.vacuum(d)).sectors == {}
    out = an.apply(FockVector(d, {2: np.multiply.outer(e1, e1)}))
    assert np.allclose(out.sector(1), (1 + q) * e1)
    out = an.apply(FockVector(d, {2: np.multiply.outer(e2, e1)}))
    assert np.allclose(out.sector(1), q * e2)


def test_field_operator_action():
    d, q, N = 2, 0.3, 4
    e1 = np.eye(d)[0]
    xi = field_operator(e1, q, N)
    out = xi.apply(FockVector.vacuum(d))
    assert np.allclose(out.sector(1), e1)
    out = xi.apply(FockVector(d, {1: e1}))
    assert np.allclose(out.sector(2), np.multiply.outer(e1, e1))
    assert out.sector(0) == pytest.approx(1.0)


@pytest.mark.parametrize("q", [-1.0, -0.5, 0.0, 0.5, 0.9])
def test_commutation_relation(q, rng):
    # annihilation against creation minus q times the reverse is scalar
    for d, N in [(2, 4), (4, 5)]:
        for _ in range(5):
            f = rng.standard_normal(d)
            g = rng.standard_normal(d)
            ac = annihilation(f, q, N).compose(creation(g, N))
            ca = creation(g, N).compose(annihilation(f, q, N))
            s = sorted(ac.exact_sectors & ca.exact_sectors)
            mat = ac.restricted_matrix(s, s) - q * ca.restricted_matrix(s, s)
            assert np.max(np.abs(mat - np.dot(f, g) * np.eye(mat.shape[0]))) <= 1e-12


def test_adjointness_in_q_inner_product(rng):
    d, N = 3, 4
    for q in (-0.5, 0.0, 0.5, 0.9):
        f = rng.standard_normal(d)
        cr, an = creation(f, N), annihilation(f, q, N)
        for k in range(N - 1):
            u = FockVector(d, {k: rng.standard_normal((d,) * k)})
            v = FockVector(d, {k + 1: rng.standard_normal((d,) * (k + 1))})
            lhs = q_inner(FockTensor(d, cr.apply(u).sector(k + 1)),
                          FockTensor(d, v.sector(k + 1)), q)
            rhs = q_inner(FockTensor(d, u.sector(k)), FockTensor(d, an.apply(v).sector(k)), q)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_annihilation_word_expansion(rng):
    # product of annihilators against an elementary tensor matches the
    # shuffle-coset sum with q-twisted inner products
    d, N = 2, 6
    for q in Q_GRID:
        for n in range(1, 4):
            for m in range(n, 5):
                fs = [rng.standard_normal(d) for _ in range(n)]
                gs = [rng.standard_normal(d) for _ in range(m)]
                vec = FockVector(d, {m: FockTensor.from_vectors(gs).data})
                out = vec
                for f in reversed(fs):
                    out = annihilation(f, q, N).apply(out)
                lhs = out.sector(m - n)
                rhs = np.zeros((d,) * (m - n))
                Ft = FockTensor.from_vectors(fs)
                for rep in coset_reps(m, n):
                    s = inverse_perm(rep.permutation)
                    Gt = FockTensor.from_vectors([gs[s[j] - 1] for j in range(n - 1, -1, -1)])
                    inner = q_inner(Ft, Gt, q)
                    rest = [gs[s[j] - 1] for j in range(n, m)]
                    tail = FockTensor.from_vectors(rest).data if rest else np.asarray(1.0)
                    rhs = rhs + q ** rep.inversions * inner * tail
                assert np.max(np.abs(lhs - rhs)) <= 1e-10


# -- Wick blocks ---------------------------------------------------------------------


def reference_hat(F, a, q):
    """The hat as a sum over subsets: the split (S, T), S the sorted ``a``
    creation axes, adds ``q^{#{(s,t) in S×T : s > t}}`` times F with its axes
    reordered to S then T."""
    n = F.ndim
    out = np.zeros_like(F)
    for S in itertools.combinations(range(n), a):
        T = tuple(i for i in range(n) if i not in S)
        w = sum(1 for s in S for t in T if s > t)
        out += q ** w * np.transpose(F, axes=S + T)
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hat_matches_the_subset_sum(d, rng):
    for n in range(7):
        F = rng.standard_normal((d,) * n)
        for a in range(n + 1):
            for q in (0.0, 0.5, -0.7, 1.0, -1.0):
                want = reference_hat(F, a, q)
                got = _shuffle_weighted_tensor(F, a, q)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(np.abs(want))


def test_high_chaos_operator_at_d1_is_fast(rng):
    # the hats of a chaos-24 element: 2^24 transposes for the subset sum, about
    # 2,300 for the one pass over the axes
    A = qfock.wickalg.WickElement.from_tensor(random_tensor(rng, 1, 24))
    with time_limit(5):
        op = to_operator(A, 0.5, 48)
        assert operator_norm(op, sorted(op.exact_sectors)) > 0.0


def test_wick_block_degree_one_cases(rng):
    d, N, q = 2, 4, 0.6
    f = rng.standard_normal(d)
    F = FockTensor.from_vectors([f])
    for sector in range(N - 1):
        x = FockVector(d, {sector: rng.standard_normal((d,) * sector)})
        a = wick_block_matrix(1, 0, F, q, N).apply(x)
        b = creation(f, N).apply(x)
        assert np.max(np.abs(a.sector(sector + 1) - b.sector(sector + 1))) <= 1e-12
        a = wick_block_matrix(0, 1, F, q, N).apply(x)
        b = annihilation(f, q, N).apply(x)
        if sector:
            assert np.max(np.abs(a.sector(sector - 1) - b.sector(sector - 1))) <= 1e-12


def test_wick_block_shifts_and_kill_low_sectors(rng):
    d, N = 2, 6
    F = random_tensor(rng, d, 3)
    op = wick_block_matrix(1, 2, F, 0.5, N)
    assert op.block(0) == {} and op.block(1) == {}
    assert list(op.block(3)) == [2]


def test_wick_block_q_to_free_reduction(rng):
    # the q block equals the free block of the shuffle-weighted tensor with
    # the annihilation slots q-symmetrized, composed with input shuffles
    d, N = 2, 8
    for q in (-0.9, -0.5, 0.5, 0.9):
        for k, ell in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (0, 2), (3, 0), (0, 3)]:
            F = random_tensor(rng, d, k + ell)
            Wq = wick_block_matrix(k, ell, F, q, N)
            H = reference_hat(F.data, k, q)
            H = _apply_partial_pq(H, list(range(k, k + ell)), q)
            W0 = wick_block_matrix(k, ell, FockTensor(d, H), 0.0, N)
            for m in range(ell, 5):
                if m not in Wq.exact_sectors or not Wq.block(m):
                    continue
                mout = m - ell + k
                X = rng.standard_normal((d,) * m)
                lhs = Wq.block(m)[mout] @ X.reshape(-1)
                rhs = np.zeros(d ** mout)
                for rep in coset_reps(m, ell):
                    sigma = [v - 1 for v in inverse_perm(rep.permutation)]
                    rhs = rhs + q ** rep.inversions * (
                        W0.block(m)[mout] @ np.transpose(X, sigma).reshape(-1))
                assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_free_block_norm_bounded_by_tensor_norm(rng):
    d, N = 2, 6
    for k, ell in [(1, 1), (2, 0), (0, 2), (2, 1), (1, 2)]:
        F = random_tensor(rng, d, k + ell)
        op = wick_block_matrix(k, ell, F, 0.0, N)
        est = operator_norm(op, sorted(op.exact_sectors))
        assert est <= F.norm() + 1e-9


def test_q_block_norm_in_twisted_metric(rng):
    # ||W_q(F)|| in the q geometry is at most C_q^{3/2} ||F||_{F_q}
    d, N = 2, 5
    for q in (-0.5, 0.5):
        C = norm_constants(q).C
        for k, ell in [(1, 1), (2, 1), (2, 2), (3, 1), (0, 4)]:
            F = random_tensor(rng, d, k + ell)
            op = wick_block_matrix(k, ell, F, q, N)
            sectors = [m for m in sorted(op.exact_sectors) if op.block(m)]
            if not sectors:
                continue
            est = operator_norm(op, sectors, metric="fq", q=q)
            fq_norm = np.sqrt(max(q_inner(F, F, q), 0.0))
            assert est <= C ** 1.5 * fq_norm + 1e-9


# -- one-pass Wick assembly against the per-word reference -------------------------
#
# The reference assembles one Wick block per TruncatedOperator, one
# annihilation word at a time: a kron of the word's shuffle-weighted
# coefficients with the identity, times the word's product of kron
# annihilation blocks.  An element is the sum of such operators.  The
# creation, annihilation, field and identity references are the kron blocks
# alone.  None of them shares code with the stacked-annihilation action, so
# they check that action independently; each acts by its dense blocks.

ASSEMBLY_Q = (-1.0, -0.9, -0.5, 0.0, 0.5, 0.9, 1.0)


def _kron_creation_block(f, k):
    return np.kron(f.reshape(-1, 1), np.eye(len(f) ** k))


def _kron_annihilation_block(f, q, k):
    # X ↦ Σ_i q^{i-1} <f, X_i> · (X without factor i)
    d = len(f)
    out = np.zeros((d ** (k - 1), d ** k))
    for i in range(1, k + 1):
        out += q ** (i - 1) * np.kron(np.kron(np.eye(d ** (i - 1)), f.reshape(1, -1)),
                                      np.eye(d ** (k - i)))
    return out


def acting_by(blocks):
    """The action of dense blocks, ``blocks(k) = {k_out: block}``, on a graded batch."""
    def act(X):
        out = {}
        for k, Xk in X.items():
            for ko, B in blocks(k).items():
                out[ko] = out.get(ko, 0.0) + B @ Xk
        return out

    return act


def reference_creation(f, cutoff):
    return TruncatedOperator(len(f), cutoff, {k: (k + 1,) for k in range(cutoff)},
                             acting_by(lambda k: {k + 1: _kron_creation_block(f, k)}))


def reference_annihilation(f, q, cutoff):
    out_map = {0: (), **{k: (k - 1,) for k in range(1, cutoff + 1)}}
    return TruncatedOperator(len(f), cutoff, out_map, acting_by(
        lambda k: {k - 1: _kron_annihilation_block(f, q, k)} if k else {}))


def reference_identity(d, cutoff, scalar):
    return TruncatedOperator(d, cutoff, {k: (k,) for k in range(cutoff + 1)},
                             acting_by(lambda k: {k: scalar * np.eye(d ** k)}))


def _reference_word_matrix(d, q, m, word):
    """``α(e_{w_1})…α(e_{w_b})`` on sector m; the rightmost letter acts first."""
    mat = np.eye(d ** m)
    for sector, letter in zip(range(m, 0, -1), reversed(word)):
        mat = _kron_annihilation_block(np.eye(d)[letter], q, sector) @ mat
    return mat


def reference_wick_block(k, ell, F, q, cutoff):
    d = F.d
    hat = reference_hat(F.data, k, q)
    out_map = {m: (() if m < ell else (m - ell + k,))
               for m in range(cutoff + 1) if m < ell or m - ell + k <= cutoff}

    def maker(m):
        if m < ell:
            return {}
        rest = m - ell
        blk = np.zeros((d ** (k + rest), d ** m))
        for word in itertools.product(range(d), repeat=ell):
            c_col = np.reshape(hat[(slice(None),) * k + word], (-1, 1))
            blk += np.kron(c_col, np.eye(d ** rest)) @ _reference_word_matrix(d, q, m, word)
        return {k + rest: blk}

    return TruncatedOperator(d, cutoff, out_map, acting_by(maker))


def reference_sum(d, cutoff, ops):
    """The sum of the operators, exact where all of them are."""
    exact = set(range(cutoff + 1)).intersection(*(op.exact_sectors for op in ops))
    out_map = {m: tuple(sorted(set().union(*(op.out_map[m] for op in ops))))
               for m in sorted(exact)}

    def maker(m):
        out = {}
        for op in ops:
            for k_out, blk in op.block(m).items():
                out[k_out] = out.get(k_out, 0.0) + blk
        return out

    return TruncatedOperator(d, cutoff, out_map, acting_by(maker))


def reference_to_operator(A, q, cutoff):
    return reference_sum(A.d, cutoff, [reference_wick_block(n - ell, ell, F, q, cutoff)
                                       for n, F in sorted(A.chaos.items())
                                       for ell in range(n + 1)])


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(np.abs(want), initial=0.0)


def _assert_same_operator(op, ref):
    assert list(op.out_map.items()) == list(ref.out_map.items())
    for m in ref.out_map:
        got, want = op.block(m), ref.block(m)
        assert list(got) == list(want)
        for k_out, blk in want.items():
            _assert_close(got[k_out], blk)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_to_operator_matches_per_word_reference(d, rng):
    for chaos, q in itertools.product(range(5), ASSEMBLY_Q):
        A = random_element(rng, d, chaos)
        cutoff = chaos + (2 if d == 3 else 3)
        _assert_same_operator(to_operator(A, q, cutoff), reference_to_operator(A, q, cutoff))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_wick_block_matrix_matches_per_word_reference(d, rng):
    for n, q in itertools.product(range(5), ASSEMBLY_Q):
        for ell in range(n + 1):
            F = random_tensor(rng, d, n)
            cutoff = n + (1 if d == 3 else 3)
            _assert_same_operator(wick_block_matrix(n - ell, ell, F, q, cutoff),
                                  reference_wick_block(n - ell, ell, F, q, cutoff))


@pytest.mark.parametrize("d,cutoffs", [(1, [*range(6), 30]), (2, range(6)), (3, range(6))])
def test_field_builders_match_kron_blocks(d, cutoffs, rng):
    for cutoff, q in itertools.product(cutoffs, ASSEMBLY_Q):
        f, scalar = rng.standard_normal(d), float(rng.standard_normal())
        _assert_same_operator(creation(f, cutoff), reference_creation(f, cutoff))
        _assert_same_operator(annihilation(f, q, cutoff), reference_annihilation(f, q, cutoff))
        _assert_same_operator(field_operator(f, q, cutoff), reference_sum(
            d, cutoff, [reference_creation(f, cutoff), reference_annihilation(f, q, cutoff)]))
        _assert_same_operator(wick_operator(d, {0: scalar}, 0.0, cutoff),
                              reference_identity(d, cutoff, scalar))


def test_assembly_handles_more_sectors_than_numpy_axes(rng):
    # a (d,)*m array has m axes, and numpy allows at most 64
    A = random_element(rng, 1, 2)
    for q in (0.0, -0.9):
        _assert_same_operator(to_operator(A, q, 70), reference_to_operator(A, q, 70))


def test_matrix_route_imports_no_symbolic_module():
    tree = ast.parse(Path(qfock.fock.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"wickalg", "combinat", "polywick"}
    assert not hasattr(qfock.fock, "_ANN_WORD_CACHE")
    # every operator comes from the one Wick assembly, with no kron product
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "kron"]
    assert not hasattr(qfock.fock, "_creation_block")
    assert not hasattr(qfock.fock, "_annihilation_block")


def test_operators_come_from_assembly_or_compose_only():
    # no closure algebra on operators: sums and multiples are differences of
    # restricted_matrix arrays, and the test-only helpers stay in the tests
    for name in ("__add__", "__sub__", "scale"):
        assert not hasattr(TruncatedOperator, name)
    assert not hasattr(FockVector, "fq_inner")
    assert not hasattr(qfock.wickalg, "wick_product_recursive_operator")
    for name in ("total_count", "add_monomial"):
        assert not hasattr(qfock.polywick.DeltaPolynomial, name)
    # each rule is stated once on its route: c·Id is wick_operator(d, {0: c}, ...),
    # the q-symmetrizer is _pq_tail, and the slot order is pattern.slots
    for name in ("identity_operator", "_pq_apply_axes"):
        assert not hasattr(qfock.fock, name)
    for name in ("leg_blocks", "insert_slots"):
        assert not hasattr(qfock.polywick.InsertionPattern, name)


# -- operator norms ----------------------------------------------------------------------


def test_operator_norm_identity():
    op = wick_operator(3, {0: 1.0}, 0.0, 4)
    assert operator_norm(op, range(5)) == pytest.approx(1.0, abs=1e-9)


def test_zero_operator_stacks_onto_sector_zero(rng):
    # an operator that reaches no sector is stacked onto one zero row, sector 0
    for d, N in ((1, 4), (2, 3), (3, 2)):
        op = wick_operator(d, {}, 0.5, N)
        assert op.out_sectors(range(N + 1)) == [0]
        mat = op.restricted_matrix(range(N + 1))
        assert mat.shape == (1, sum(d ** k for k in range(N + 1))) and not mat.any()
        assert operator_norm(op, range(N + 1)) == 0.0
        assert operator_norm(op, range(N + 1), metric="fq", q=0.5) == 0.0
    # the oracle stacks the union of both operators' sectors: sector 0 alone here
    B = random_element(rng, 2, 2)
    assert qfock.verify.oracle_deviation(qfock.wickalg.WickElement.zero(2), B, 0.5, 4) == 0.0


def test_operator_norm_exact_on_close_singular_values():
    # two singular values 1e-4 apart: a stopping rule on the change of a
    # power-iteration estimate stops early and under-reads the norm
    op = TruncatedOperator(2, 1, {1: (1,)}, acting_by(lambda k: {1: np.diag([1.0, 0.9999])}))
    assert operator_norm(op, [1]) == pytest.approx(1.0, rel=1e-12)


def test_operator_norm_free_creation_is_one(rng):
    f = rng.standard_normal(3)
    f /= np.linalg.norm(f)
    op = creation(f, 6)
    assert operator_norm(op, sorted(op.exact_sectors)) == pytest.approx(1.0, abs=1e-8)


def test_creation_norm_grows_to_q_bound():
    # in the twisted metric the norm increases to 1/sqrt(1-q) from below
    q, target = 0.5, np.sqrt(2.0)
    prev = 0.0
    for N in (2, 4, 8, 16):
        op = creation(np.array([1.0]), N)
        est = operator_norm(op, sorted(op.exact_sectors), metric="fq", q=q)
        assert est >= prev - 1e-12
        assert est <= target + 1e-9
        prev = est
    assert est == pytest.approx(target, rel=1e-3)


def _eigh_fq_norm(op, sectors, q):
    """The fq norm with every sector block conjugated by ``P_q^{±1/2}`` from eigh."""
    def root(k, power):
        vals, vecs = np.linalg.eigh(pq_matrix(op.d, k, q))
        return (vecs * vals ** power) @ vecs.T

    sectors_out = sorted({k for s in sectors for k in op.block(s)})
    mat = op.restricted_matrix(sectors, sectors_out)
    left = block_diag(*(root(k, 0.5) for k in sectors_out))
    right = block_diag(*(root(k, -0.5) for k in sectors))
    return np.linalg.norm(left @ mat @ right, 2)


@pytest.mark.parametrize("q", (-0.99, -0.9, -0.5, 0.0, 0.5, 0.9, 0.99))
def test_fq_norm_matches_eigh_conjugation(q, rng):
    for d, chaos, cutoff in ((2, 1, 7), (2, 3, 6), (3, 2, 5), (3, 3, 5)):
        op = to_operator(random_element(rng, d, chaos), q, cutoff)
        sectors = sorted(op.exact_sectors)
        assert operator_norm(op, sectors, metric="fq", q=q) == \
            pytest.approx(_eigh_fq_norm(op, sectors, q), rel=1e-12), (d, chaos, cutoff)


def test_fq_norm_refuses_a_metric_without_cholesky_factor(monkeypatch):
    # a P_q that is not positive definite has no Cholesky factor
    monkeypatch.setattr(qfock.fock, "pq_matrix", lambda d, k, q: -np.eye(d ** k))
    with pytest.raises(ValueError, match="not positive definite"):
        operator_norm(wick_operator(2, {0: 1.0}, 0.0, 2), [0, 1], metric="fq", q=0.5)


def test_free_field_norm_approaches_two():
    prev = 0.0
    for N in (4, 8, 16, 30):
        op = field_operator(np.array([1.0]), 0.0, N)
        est = operator_norm(op, sorted(op.exact_sectors))
        assert est >= prev - 1e-12
        prev = est
    assert est == pytest.approx(2.0, rel=5e-3)
    assert est < 2.0


def test_operator_norm_empty_range_errors():
    with pytest.raises(ValueError, match="empty"):
        operator_norm(wick_operator(2, {0: 1.0}, 0.0, 3), [])


# -- truncation bookkeeping -------------------------------------------------------------


def test_apply_outside_exact_range_refuses(rng):
    d, N = 2, 3
    op = creation(rng.standard_normal(d), N)
    bad = FockVector(d, {N: rng.standard_normal((d,) * N)})
    with pytest.raises(TruncationError):
        op.apply(bad)
    # the sector lists read out_map, which has no entry for an inexact sector
    for reads_sector_n in (lambda: op.out_sectors([N]), lambda: op.restricted_matrix([N]),
                           lambda: operator_norm(op, [N]),
                           lambda: operator_norm(op, [N], metric="fq", q=0.5)):
        with pytest.raises(TruncationError):
            reads_sector_n()


def test_composition_tracks_exactness(rng):
    d, N = 2, 4
    f = rng.standard_normal(d)
    two_up = creation(f, N).compose(creation(f, N))
    assert sorted(two_up.exact_sectors) == [0, 1, 2]
    with pytest.raises(TruncationError):
        two_up.block(3)


# -- operators act on column batches ----------------------------------------------------

ACTION_CUTOFF = {1: 12, 2: 7, 3: 5}


def _factors(rng, d, q, cutoff):
    """One operator of each kind the matrix route builds, over d dimensions."""
    f = rng.standard_normal(d)
    return [*(to_operator(random_element(rng, d, chaos), q, cutoff) for chaos in range(4)),
            field_operator(f, q, cutoff), creation(f, cutoff), annihilation(f, q, cutoff)]


def _dense_chain(ops, sectors):
    """The product of the operators' restricted matrices (the last acts first), and
    its output sectors; a chain that reaches no sector is one zero row, sector 0."""
    mat = np.eye(sum(ops[0].d ** k for k in sectors))
    for op in reversed(ops):
        outs = sorted({k_out for k in sectors for k_out in op.out_map[k]})
        if not outs:
            return np.zeros((1, mat.shape[1])), [0]
        mat, sectors = op.restricted_matrix(sectors, outs) @ mat, outs
    return mat, sectors


@pytest.mark.parametrize("d", [1, 2, 3])
def test_composed_chains_match_dense_products(d, rng):
    cutoff = ACTION_CUTOFF[d]
    for q in ASSEMBLY_Q:
        factors = _factors(rng, d, q, cutoff)
        chains = [[factors[i] for i in rng.choice(len(factors), size, replace=False)]
                  for size in (2, 2, 3, 3, 3)]
        for chain in chains:
            groupings = [chain[0].compose(chain[1])] if len(chain) == 2 else [
                chain[0].compose(chain[1]).compose(chain[2]),
                chain[0].compose(chain[1].compose(chain[2]))]
            for composed in groupings:
                assert composed.out_map == groupings[0].out_map
                sectors = sorted(composed.exact_sectors)
                if not sectors:
                    continue
                want, outs = _dense_chain(chain, sectors)
                assert composed.out_sectors(sectors) == outs
                assert composed._cache == {}  # out_sectors reads out_map, not blocks
                _assert_close(composed.restricted_matrix(sectors, outs), want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_action_is_the_block_times_the_batch(d, rng):
    cutoff = ACTION_CUTOFF[d]
    for q in (-0.9, 0.5, 1.0):
        factors = _factors(rng, d, q, cutoff)
        for op in factors + [factors[3].compose(factors[4]), factors[6].compose(factors[2])]:
            sectors = sorted(op.exact_sectors)
            X = {k: rng.standard_normal((d ** k, 5)) for k in sectors}
            want, scale = {}, {}
            for k in sectors:
                acted, blocks = op.act({k: X[k]}), op.block(k)
                assert list(acted) == list(blocks)
                for k_out, blk in blocks.items():
                    _assert_close(acted[k_out], blk @ X[k])
                    want[k_out] = want.get(k_out, 0.0) + blk @ X[k]
                    scale[k_out] = max(scale.get(k_out, 0.0), np.max(np.abs(blk @ X[k])))
                vec = FockVector(d, {k: X[k][:, 0].reshape((d,) * k)})
                out = op.apply(vec)
                for k_out, blk in blocks.items():
                    _assert_close(out.sector(k_out).reshape(-1), blk @ X[k][:, 0])
            # a batch over every exact sector, or a vector with every sector
            # nonzero, goes to the sum of its sectors' images; the sum is
            # associated differently, so it is compared on the images' scale
            acted = op.act(X)
            out = op.apply(FockVector(d, {k: X[k][:, 0].reshape((d,) * k) for k in sectors}))
            assert sorted(acted) == sorted(out.sectors) == sorted(want)
            for k_out, img in want.items():
                assert np.max(np.abs(acted[k_out] - img)) <= 1e-14 * scale[k_out]
                assert np.max(np.abs(out.sector(k_out).reshape(-1) - img[:, 0])) <= \
                    1e-14 * scale[k_out]


def test_action_outside_exact_range_refuses(rng):
    d, N = 2, 4
    f = rng.standard_normal(d)
    for op in (creation(f, N), to_operator(random_element(rng, d, 3), 0.5, N),
               creation(f, N).compose(field_operator(f, 0.5, N))):
        bad = min(set(range(N + 2)) - op.exact_sectors)
        with pytest.raises(TruncationError):
            op.act({bad: np.ones((d ** bad, 2))})
        with pytest.raises(TruncationError):
            op.act({0: np.ones((1, 2)), bad: np.ones((d ** bad, 2))})


def test_composition_builds_no_block_of_its_factors(rng):
    # the d3c3 oracle shape at cutoff 8: building the outer factor's dense
    # sector-5 block alone takes 6561 × 243 entries (12.8 MB)
    d, cutoff, q = 3, 8, 0.5
    op_a, op_b = (to_operator(random_element(rng, d, 3), q, cutoff) for _ in range(2))
    tracemalloc.start()
    try:
        composed = op_a.compose(op_b)
        blocks = {k: composed.block(k) for k in sorted(composed.exact_sectors)}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(blocks) == [0, 1, 2] and blocks[2][8].shape == (d ** 8, d ** 2)
    assert peak < 4 * 2 ** 20
    assert op_a._cache == {} and op_b._cache == {}


def test_composition_acts_once_per_middle_sector(rng):
    # a graded batch passes the outer factor once, whatever sectors it spans
    d, cutoff, q = 2, 7, 0.5
    outer, inner = (to_operator(random_element(rng, d, 3), q, cutoff) for _ in range(2))
    calls, act = [], outer._act
    outer._act = lambda X: calls.append(list(X)) or act(X)
    composed = outer.compose(inner)
    sectors = sorted(composed.exact_sectors)
    assert len(sectors) > 1
    composed.act({k: rng.standard_normal((d ** k, 3)) for k in sectors})
    mids = sorted({m for k in sectors for m in inner.out_map[k]})
    assert len(calls) == 1 and sorted(calls[0]) == mids


def test_repr_and_equality_ignore_cached_blocks(rng):
    op = to_operator(random_element(rng, 3, 2), 0.5, 6)
    twin = TruncatedOperator(op.d, op.cutoff, op.out_map, op._act)
    before = repr(op)
    op.block(2)
    assert len(repr(op)) == len(before)
    assert op == twin


# -- serialization ------------------------------------------------------------------------


def test_tensor_json_roundtrip(rng):
    F = random_tensor(rng, 3, 2)
    back = FockTensor.from_json(F.to_json())
    assert back.d == F.d and back.degree == F.degree
    assert np.allclose(back.data, F.data)
    scalar = FockTensor.scalar(2, -1.5)
    assert FockTensor.from_json(scalar.to_json()).data == pytest.approx(-1.5)


def _tensor_doc(coeffs, d=2, degree=1):
    return {"d": d, "degree": degree, "coeffs": coeffs}


@pytest.mark.parametrize("doc,match", [
    (_tensor_doc([{"word": [-1], "value": 1.0}]), "indices in 0..1"),
    (_tensor_doc([{"word": [2], "value": 1.0}]), "indices in 0..1"),
    (_tensor_doc([{"word": [1], "value": 1.0}], degree=2), "must list 2 indices"),
    (_tensor_doc([{"word": [0, 1], "value": 1.0}]), "must list 1 indices"),
    (_tensor_doc([{"word": [1], "value": 1.0}, {"word": [1], "value": 2.0}]),
     "appears twice"),
    (_tensor_doc([{"word": [1], "value": None}]), "finite number"),
    (_tensor_doc([{"word": [1], "value": float("inf")}]), "finite number"),
    (_tensor_doc([{"word": [1], "value": 10 ** 400}]), "finite number"),
    (_tensor_doc([{"word": [1], "value": True}]), "finite number"),
    (_tensor_doc([1.0]), "list of objects"),
    (_tensor_doc([], d=0), "positive integer"),
    (_tensor_doc([], degree=-1), "nonnegative integer"),
    ([{"word": [0], "value": 1.0}], "JSON object"),
    ("tensor", "JSON object"),
    # (d,) * degree would be a tuple too long to build
    (_tensor_doc([], d=1, degree=65), "up to 64"),
    (_tensor_doc([], d=1, degree=10 ** 400), "up to 64"),
])
def test_tensor_from_json_rejects_malformed(doc, match):
    with pytest.raises(ValueError, match=match):
        FockTensor.from_json(doc)


def test_tensor_from_json_accepts_every_valid_word():
    coeffs = [{"word": [i, j], "value": float(3 * i + j + 1)}
              for i in range(3) for j in range(3)]
    F = FockTensor.from_json(_tensor_doc(coeffs, d=3, degree=2))
    assert np.array_equal(F.data, np.arange(1.0, 10.0).reshape(3, 3))
    assert F.to_json() == _tensor_doc(coeffs, d=3, degree=2)
