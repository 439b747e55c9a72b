"""Acceptance suite: every criterion at its stated tolerance and time budget.

Each test prints one pass/fail line.  Run with ``pytest -s`` to see the lines
for passing criteria as well.
"""
import time

import numpy as np

from conftest import random_element, random_tensor
from qfock import combinat, fock, polywick, qsde, wickalg

Q_FULL = (-0.9, -0.5, 0.0, 0.5, 0.9)
Q_WITH_BOUNDARY = Q_FULL + (1.0, -1.0)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""))
    return ok


def test_criterion_01_moment_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for q in Q_WITH_BOUNDARY:
        for d in (1, 2, 3):
            for n in range(1, 7):
                for _ in range(3):
                    fs = [rng.standard_normal(d) for _ in range(n)]
                    vec = fock.FockVector.vacuum(d)
                    for f in reversed(fs):
                        vec = fock.field_operator(f, q, 6).apply(vec)
                    matrix_value = float(vec.sector(0))
                    worst = max(worst, abs(wickalg.moment(fs, q) - matrix_value))
    e = np.array([1.0])
    spot = all([
        abs(wickalg.moment([e] * 4, 1.0) - 3.0) <= 1e-12,
        abs(wickalg.moment([e] * 4, 0.0) - 2.0) <= 1e-12,
        abs(wickalg.moment([e] * 4, -1.0) - 1.0) <= 1e-12,
        abs(wickalg.moment([e] * 6, 1.0) - 15.0) <= 1e-12,
    ] + [abs(wickalg.moment([e] * 4, q) - (2 + q)) <= 1e-12 for q in Q_FULL])
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and spot and elapsed < 10.0
    assert _report(1, "q-weighted moment rule vs matrix vacuum oracle", ok,
                   f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_commutation_relation():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(200):
        q = rng.choice([-1.0, -0.5, 0.0, 0.5, 0.9])
        d = int(rng.integers(2, 5))
        N = int(rng.integers(3, 6))
        f, g = rng.standard_normal(d), rng.standard_normal(d)
        ac = fock.annihilation(f, q, N).compose(fock.creation(g, N))
        ca = fock.creation(g, N).compose(fock.annihilation(f, q, N))
        s = sorted(ac.exact_sectors & ca.exact_sectors)
        mat = ac.restricted_matrix(s, s) - q * ca.restricted_matrix(s, s)
        worst = max(worst, float(np.max(np.abs(mat - np.dot(f, g) * np.eye(mat.shape[0])))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    assert _report(2, "twisted commutation relation exact on sectors", ok,
                   f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_product_matrix_oracle():
    start = time.monotonic()
    from qfock.verify import oracle_deviation
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(500):
        q = Q_FULL[i % len(Q_FULL)]
        d = 2 if i % 3 else 3
        A = random_element(rng, d, 3)
        B = random_element(rng, d, 3)
        worst = max(worst, oracle_deviation(A, B, q, 8))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    assert _report(3, "algebra product equals composed matrices (500 pairs)", ok,
                   f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_intertwining_statistics():
    start = time.monotonic()
    p = combinat.Pairing(((1, 4), (2, 5)), combinat.IndexSet.range(6))
    cr, sp, crb = combinat.contraction_stats(p)
    example_ok = (cr, sp, crb) == (1, 2, 3)
    doubling_ok = True
    for n in range(7):
        for pairing in combinat.enumerate_pairings(combinat.IndexSet.range(n)):
            doubled = combinat.mirror_double(pairing)
            if combinat.contraction_stats(doubled)[0] != 2 * combinat.contraction_stats(pairing)[2]:
                doubling_ok = False
    elapsed = time.monotonic() - start
    ok = example_ok and doubling_ok and elapsed < 5.0
    assert _report(4, "crossing/separation example and mirror doubling", ok,
                   f"example {(cr, sp, crb)}, {elapsed:.1f}s")


def test_criterion_05_insertion_product_examples():
    start = time.monotonic()
    d, q = 4, 0.37
    e = np.eye(d)
    f2, f3, g1, g2 = e[1], e[2], e[3], e[0] + 0.5 * e[1]
    pat = polywick.InsertionPattern.from_string("LILIL")
    ctx = pat.leg_context()
    one = wickalg.WickElement.one(d)
    xi = wickalg.WickElement.from_vector
    pi13 = combinat.Pairing(((1, 5),), ctx)
    pi12 = combinat.Pairing(((1, 3),), ctx)
    worst = 0.0

    out = polywick.delta_R(pat, pi13, fock.FockTensor.from_vectors([f2]),
                           [one, xi(g1), xi(g2), one], q)
    expect = (wickalg.WickElement.from_tensor(
        fock.FockTensor.from_vectors([g1, f2, g2])).scale(q ** 3)
        + xi(f2).scale(q ** 2 * np.dot(g1, g2))
        + xi(g1).scale(q * np.dot(f2, g2))
        + xi(g2).scale(q * np.dot(g1, f2)))
    worst = max(worst, (out - expect).max_abs_coeff())

    out = polywick.delta_R(pat, pi12, fock.FockTensor.from_vectors([f3]),
                           [one, xi(g1), xi(g2), one], q)
    expect = (wickalg.WickElement.from_tensor(
        fock.FockTensor.from_vectors([g1, g2, f3])).scale(q)
        + xi(f3).scale(q * np.dot(g1, g2))
        + xi(g1).scale(q * np.dot(g2, f3))
        + xi(g2).scale(q ** 2 * np.dot(g1, f3)))
    worst = max(worst, (out - expect).max_abs_coeff())

    A1 = wickalg.multiply(xi(g1), xi(g2), q)
    out = polywick.delta_R(pat, pi13, fock.FockTensor.from_vectors([f2]),
                           [one, A1, one, one], q)
    expect = (wickalg.WickElement.from_tensor(
        fock.FockTensor.from_vectors([g1, g2, f2])).scale(q ** 3)
        + xi(f2).scale(q * np.dot(g1, g2))
        + xi(g1).scale(q * np.dot(g2, f2))
        + xi(g2).scale(q ** 2 * np.dot(g1, f2)))
    worst = max(worst, (out - expect).max_abs_coeff())

    out = polywick.delta_R(pat, pi12, fock.FockTensor.from_vectors([f3]),
                           [one, A1, one, one], q)
    expect = (wickalg.WickElement.from_tensor(
        fock.FockTensor.from_vectors([g1, g2, f3])).scale(q ** 2)
        + xi(f3).scale(np.dot(g1, g2))
        + xi(g1).scale(q ** 2 * np.dot(g2, f3))
        + xi(g2).scale(q ** 3 * np.dot(g1, f3)))
    worst = max(worst, (out - expect).max_abs_coeff())

    elapsed = time.monotonic() - start
    ok = worst <= 1e-12
    assert _report(5, "renormalised insertion map worked examples", ok,
                   f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_06_disentanglement():
    start = time.monotonic()
    rng = np.random.default_rng(106)
    pat = polywick.InsertionPattern.from_string("LILIL")
    worst = 0.0
    for i in range(100):
        q = Q_FULL[i % len(Q_FULL)]
        d = 2
        fs = [rng.standard_normal(d) for _ in range(3)]
        As = [random_element(rng, d, 2) for _ in range(4)]
        lhs, rhs = polywick.disentangle_check(pat, fs, As, q)
        worst = max(worst, (lhs - rhs).max_abs_coeff())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    assert _report(6, "insertion-product disentanglement (100 instances)", ok,
                   f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_banach_submultiplicativity():
    start = time.monotonic()
    rng = np.random.default_rng(107)
    violations = 0
    worst_margin = -np.inf
    for q in (-0.5, 0.5, -0.9, 0.9):
        for _ in range(1000):
            A = random_element(rng, 2, 3)
            B = random_element(rng, 2, 3)
            margin = (wickalg.triple_norm(wickalg.multiply(A, B, q), q)
                      - wickalg.triple_norm(A, q) * wickalg.triple_norm(B, q))
            worst_margin = max(worst_margin, margin)
            if margin > 1e-9:
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 60.0
    assert _report(7, "graded norm submultiplicativity (4000 pairs)", ok,
                   f"violations {violations}, worst margin {worst_margin:.2e}, {elapsed:.1f}s")


def test_criterion_08_operator_norm_bounds():
    start = time.monotonic()
    rng = np.random.default_rng(108)
    worst_margin = -np.inf
    for q in Q_FULL:
        if q == 0.0:
            continue
        nc = wickalg.norm_constants(q)
        for i in range(100):
            n = i % 3 + 1
            F = random_tensor(rng, 2, n)
            op = wickalg.to_operator(wickalg.WickElement.from_tensor(F), q, 6)
            est = fock.operator_norm(op, sorted(op.exact_sectors))
            worst_margin = max(worst_margin, est - (n + 1) * nc.D ** n * nc.C * F.norm())
    elapsed = time.monotonic() - start
    ok = worst_margin <= 1e-9 and elapsed < 120.0
    assert _report(8, "Wick product operator-norm bounds (400 samples)", ok,
                   f"worst margin {worst_margin:.2e}, {elapsed:.1f}s")


def test_criterion_08_free_sharpness_probe():
    # The truncated norm of the free Wick square at cutoff 12 is exactly
    # computable and sits about 7% below the limit value 3; the 2% target is
    # not attainable at this cutoff (the norm is 2.9392 at cutoff 24 and first
    # enters the band at cutoff 25, with 2.9437), so this criterion records an
    # honest failure.  The monotone approach to the limit is asserted in
    # tests/test_wickalg.py::test_free_wick_square_norm_grows_to_three.
    start = time.monotonic()
    e = np.array([1.0])
    A = wickalg.wick_product_vectors([e, e], 0.0)
    op = wickalg.to_operator(A, 0.0, 12)
    est = fock.operator_norm(op, sorted(op.exact_sectors))
    elapsed = time.monotonic() - start
    ok = abs(est - 3.0) <= 0.02 * 3.0
    assert _report(8, "free Wick-square norm within 2% of 3 at cutoff 12", ok,
                   f"estimate {est:.4f} vs 3.0, {elapsed:.1f}s")


def test_criterion_09_counterterm_polynomials():
    start = time.monotonic()
    p2 = polywick.counterterm_polynomial(polywick.quartic_2d_configs())
    p3 = polywick.counterterm_polynomial(polywick.quartic_3d_configs())
    target2 = polywick.DeltaPolynomial({(0, 0): 2, (0, 1): 1})
    target3 = polywick.DeltaPolynomial({(0, 0): 3, (1, 0): 2, (0, 1): 4,
                                        (1, 1): 4, (0, 2): 2, (1, 2): 3})
    elapsed = time.monotonic() - start
    ok = (p2 == target2 and p3 == target3
          and p3.evaluate(1.0, 1.0) == 18.0
          and len(polywick.quartic_3d_configs()) == 18
          and elapsed < 1.0)
    assert _report(9, "mass counterterm polynomials (2d and 3d quartic)", ok,
                   f"p2 {p2.to_json()}, p3 count {sum(p3.coeffs.values())}, {elapsed:.2f}s")


def test_criterion_10_chen_identity():
    start = time.monotonic()
    grid = qsde.TimeGrid(1.0, 16)
    one = wickalg.WickElement.one(16)
    dt = grid.dt
    worst = 0.0
    times = [k * dt for k in range(17)]
    triples = [(s, u, t) for s in times for u in times for t in times
               if s <= u <= t]
    for q in (0.0, 0.5, -0.5):
        for side in (qsde.LEFT, qsde.RIGHT):
            for w in (0.0, 0.5):
                for (s, u, t) in triples:
                    r = qsde.chen_residual(s, u, t, one, side, grid, q, w)
                    worst = max(worst, r.max_abs_coeff())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    assert _report(10, f"Chen identity over {len(triples)} grid triples", ok,
                   f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_11_renormalisation_constant():
    start = time.monotonic()
    worst = 0.0
    for rho in (qsde.quartic_bump, qsde.triangle_bump):
        for eps in (0.1, 0.01):
            worst = max(worst, abs(qsde.bphz_constant(rho, eps) - 0.5))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    assert _report(11, "renormalisation constant 1/2 by quadrature", ok,
                   f"max |value-1/2| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_12_ito_residual():
    start = time.monotonic()
    grid = qsde.TimeGrid(1.0, 32)
    exact_ok = True
    reference = None
    for q in Q_FULL:
        step = qsde.ito_step(2, 0.5, grid, q)
        delta = qsde.qbm(0.5, 0.5 + grid.dt, grid, q)
        expected = wickalg.multiply(delta, delta, q)
        exact_ok &= (step["residual"] - expected).max_abs_coeff() <= 1e-13
        if reference is None:
            reference = step["residual"]
        else:
            exact_ok &= step["residual"].allclose(reference, 1e-13)
    report = qsde.ito_residual(3, 0.5, qsde.TimeGrid(1.0, 128), 0.5)
    slope_ok = 1.4 <= report["fit_slope"] <= 1.6
    conv_ok = report["matched_convention"] == "unordered"
    elapsed = time.monotonic() - start
    ok = exact_ok and slope_ok and conv_ok and elapsed < 120.0
    assert _report(12, "discrete Ito residual: exact square, cubic slope", ok,
                   f"slope {report['fit_slope']:.3f}, convention "
                   f"{report['matched_convention']}, {elapsed:.1f}s")


def test_criterion_13_symmetrizer_spectra():
    start = time.monotonic()
    pos_ok = True
    bound_ok = True
    rows = []
    for q in (-0.9, -0.5, 0.5, 0.9):
        D = 1.0 / (1.0 - abs(q))
        for d in (2, 3):
            for n in (1, 2, 3, 4):
                vals = np.linalg.eigvalsh(fock.pq_matrix(d, n, q))
                top = float(np.max(np.abs(vals)))
                pos_ok &= bool(np.min(vals) > 0)
                bound_ok &= top <= D ** n + 1e-9
                product = float(np.prod([(1 - abs(q) ** k) / (1 - abs(q))
                                         for k in range(1, n + 1)]))
                rows.append((q, d, n, top, product, top - product))
    elapsed = time.monotonic() - start
    ok = pos_ok and bound_ok and elapsed < 30.0
    print("[criterion 13] symmetrizer norm vs q-factorial product "
          "(computed, product, discrepancy):")
    for q, d, n, top, product, disc in rows:
        print(f"    q={q:+.1f} d={d} n={n}: {top:.9f} vs {product:.9f} "
              f"(diff {disc:+.2e})")
    assert _report(13, "symmetrizer positivity and norm bound", ok,
                   f"{elapsed:.1f}s")
