"""Named verification suites behind the CLI.

Each suite runs a deterministic batch of identity and inequality checks with
a fixed seed and returns a JSON-ready summary; a check names the mathematical
statement it exercises and reports the worst observed deviation or margin.
"""
from __future__ import annotations

import inspect

import numpy as np

from . import fock, polywick, qsde, wickalg

DEFAULT_Q_GRID = (-0.9, -0.5, 0.0, 0.5, 0.9)


def _random_element(rng, d: int, max_chaos: int) -> wickalg.WickElement:
    chaos = {}
    for k in range(max_chaos + 1):
        chaos[k] = fock.FockTensor(d, rng.standard_normal((d,) * k))
    return wickalg.WickElement(d, chaos)


def _check(name: str, passed: bool, **metrics) -> dict:
    out = {"name": name, "passed": bool(passed)}
    out.update(metrics)
    return out


def _worse(worst: float, x: float) -> float:
    """The larger of a running worst and a new value; a NaN in either wins."""
    return float(np.maximum(worst, x))


def suite_commutation(seed=0, q_grid=DEFAULT_Q_GRID, d=3):
    """alpha(f) alpha†(g) - q alpha†(g) alpha(f) = <f,g>·Id on exact sectors."""
    fock.refuse_large_tensor(d, 10)  # the sector-5 annihilation block starts from eye(d^5)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for q in q_grid:
        for _ in range(20):
            f = rng.standard_normal(d)
            g = rng.standard_normal(d)
            ac = fock.annihilation(f, q, 5).compose(fock.creation(g, 5))
            ca = fock.creation(g, 5).compose(fock.annihilation(f, q, 5))
            s = sorted(ac.exact_sectors & ca.exact_sectors)
            mat = ac.restricted_matrix(s, s) - q * ca.restricted_matrix(s, s)
            target = float(np.dot(f, g)) * np.eye(mat.shape[0])
            worst = _worse(worst, np.max(np.abs(mat - target)))
    checks = [_check("commutation-relation", worst <= 1e-12, max_deviation=worst)]
    return _summary("commutation", checks)


def suite_wick_oracle(seed=0, q_grid=DEFAULT_Q_GRID, d=2, chaos=2):
    """multiply() agrees with the composed matrix realisation on exact sectors."""
    cutoff = max(6, 2 * chaos + 2)  # input sectors 0..2 stay exact
    # the product's top chaos, and the largest array, the stacked matrix from sectors
    # 0..cutoff - 2·chaos to 0..cutoff of (Σ d^k)(Σ d^k) < d^(2·cutoff + 2 - 2·chaos)
    # entries at d >= 2, and a few hundred flat entries at d = 1; the composition's
    # column batches are smaller.  13 - chaos, looser than needed at chaos <= 2, keeps
    # the suite's refusals from shrinking.
    fock.refuse_large_tensor(d, max(2 * chaos, 13 - chaos))
    if d > 1:
        fock.refuse_large_tensor(d, 2 * cutoff + 2 - 2 * chaos)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for q in q_grid:
        for _ in range(10):
            A = _random_element(rng, d, chaos)
            B = _random_element(rng, d, chaos)
            worst = _worse(worst, oracle_deviation(A, B, q, cutoff))
    checks = [_check("product-vs-matrix-oracle", worst <= 1e-10, max_deviation=worst)]
    return _summary("wick-oracle", checks)


def oracle_deviation(A: wickalg.WickElement, B: wickalg.WickElement,
                     q: float, cutoff: int) -> float:
    """Entrywise gap between multiply(A,B) and the composed matrices."""
    AB = wickalg.multiply(A, B, q)
    op_ab = wickalg.to_operator(AB, q, cutoff)
    composed = wickalg.to_operator(A, q, cutoff).compose(
        wickalg.to_operator(B, q, cutoff))
    sectors = sorted(op_ab.exact_sectors & composed.exact_sectors)
    if not sectors:
        raise ValueError("no common exact sectors; raise the cutoff")
    outs = sorted({*op_ab.out_sectors(sectors), *composed.out_sectors(sectors)})
    m1 = op_ab.restricted_matrix(sectors, outs)
    m2 = composed.restricted_matrix(sectors, outs)
    return float(np.max(np.abs(m1 - m2)))


def suite_norm_submult(seed=0, q_grid=(-0.9, -0.5, 0.5, 0.9), d=2, chaos=3):
    """|||AB||| <= |||A|||·|||B||| with additive slack 1e-9."""
    fock.refuse_large_tensor(d, 2 * chaos)  # the product's top chaos
    rng = np.random.default_rng(seed)
    violations = 0
    worst_margin = -np.inf
    for q in q_grid:
        for _ in range(200):
            A = _random_element(rng, d, chaos)
            B = _random_element(rng, d, chaos)
            lhs = wickalg.triple_norm(wickalg.multiply(A, B, q), q)
            rhs = wickalg.triple_norm(A, q) * wickalg.triple_norm(B, q)
            margin = lhs - rhs
            worst_margin = _worse(worst_margin, margin)
            if not margin <= 1e-9:
                violations += 1
    checks = [_check("banach-submultiplicativity", violations == 0,
                     violations=violations, worst_margin=float(worst_margin))]
    return _summary("norm-submult", checks)


def suite_opbounds(seed=0, q_grid=(-0.5, 0.0, 0.5), d=2):
    """Wick-block and symmetrizer norm bounds, plus the symmetrizer product form."""
    fock.refuse_large_tensor(d, 13)  # the stacked sectors 0..6: (Σ d^k)² < d^13 entries (d >= 3)
    rng = np.random.default_rng(seed)
    checks = []

    worst = -np.inf
    for _ in range(20):
        k, ell = rng.integers(0, 3), rng.integers(0, 3)
        if k + ell == 0:
            k = 1
        F = fock.FockTensor(d, rng.standard_normal((d,) * (k + ell)))
        op = fock.wick_block_matrix(k, ell, F, 0.0, 6)
        est = fock.operator_norm(op, sorted(op.exact_sectors))
        worst = _worse(worst, est - F.norm())
    checks.append(_check("free-wick-block-contraction-bound", worst <= 1e-9,
                         worst_margin=float(worst)))

    worst = -np.inf
    for q in q_grid:
        nc = wickalg.norm_constants(q)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            F = fock.FockTensor(d, rng.standard_normal((d,) * n))
            A = wickalg.WickElement(d, {n: F})
            op = wickalg.to_operator(A, q, 6)
            est = fock.operator_norm(op, sorted(op.exact_sectors))
            bound = (n + 1) * nc.D ** n * nc.C * F.norm()
            worst = _worse(worst, est - bound)
    checks.append(_check("wick-product-operator-bound", worst <= 1e-9,
                         worst_margin=float(worst)))

    rows = []
    ok = True
    for q in (-0.9, -0.5, 0.5, 0.9):
        nc = wickalg.norm_constants(q)
        for n in range(1, 5):
            vals = np.linalg.eigvalsh(fock.pq_matrix(2, n, q))
            computed = float(np.max(np.abs(vals)))
            product = float(np.prod([(1 - abs(q) ** j) / (1 - abs(q)) for j in range(1, n + 1)]))
            rows.append({"q": q, "n": n, "computed_norm": computed,
                         "product_formula": product,
                         "discrepancy": computed - product})
            ok = ok and computed <= nc.D ** n + 1e-9 and np.min(vals) > 0
    checks.append(_check("symmetrizer-norm-and-positivity", ok, comparison=rows))
    return _summary("opbounds", checks)


def suite_disentangle(seed=0, q_grid=(-0.5, 0.5), d=2, chaos=2):
    """Insertion-product decomposition of a plain operator product."""
    fock.refuse_large_tensor(d, 4 * chaos + 3)  # the top chaos of the LILIL left side
    rng = np.random.default_rng(seed)
    pattern = polywick.InsertionPattern.from_string("LILIL")
    worst = 0.0
    for q in q_grid:
        for _ in range(15):
            fs = [rng.standard_normal(d) for _ in range(3)]
            As = [_random_element(rng, d, chaos) for _ in range(4)]
            lhs, rhs = polywick.disentangle_check(pattern, fs, As, q)
            worst = _worse(worst, (lhs - rhs).max_abs_coeff())
    checks = [_check("insertion-product-decomposition", worst <= 1e-10,
                     max_deviation=worst)]
    return _summary("disentangle", checks)


def suite_counterterm():
    """The quartic-model counterterm polynomials, with exact integer match."""
    p2 = polywick.counterterm_polynomial(polywick.quartic_2d_configs())
    target2 = polywick.DeltaPolynomial({(0, 0): 2, (0, 1): 1})
    p3 = polywick.counterterm_polynomial(polywick.quartic_3d_configs())
    target3 = polywick.DeltaPolynomial({
        (0, 0): 3, (1, 0): 2, (0, 1): 4, (1, 1): 4, (0, 2): 2, (1, 2): 3})
    checks = [
        _check("quartic-2d-counterterm", p2 == target2, polynomial=p2.to_json()),
        _check("quartic-3d-counterterm", p3 == target3, polynomial=p3.to_json()),
        _check("quartic-3d-config-count", p3.evaluate(1.0, 1.0) == 18.0,
               eval_at_one=p3.evaluate(1.0, 1.0)),
    ]
    return _summary("counterterm", checks)


def suite_chen(seed=0, q_grid=(0.0, -0.5, 0.5)):
    """Chen additivity defect equals the split product, to 1e-12 per coefficient."""
    rng = np.random.default_rng(seed)
    grid = qsde.TimeGrid(1.0, 16)
    one = wickalg.WickElement.one(grid.cells)
    worst = 0.0
    dt = grid.dt
    triples = []
    for _ in range(40):
        a, b, c = sorted(rng.integers(0, grid.cells + 1, size=3))
        triples.append((a * dt, b * dt, c * dt))
    for q in q_grid:
        for side in (qsde.LEFT, qsde.RIGHT):
            for w in (0.0, 0.5):
                for (s, u, t) in triples:
                    r = qsde.chen_residual(s, u, t, one, side, grid, q, w)
                    worst = _worse(worst, r.max_abs_coeff())
    insert = wickalg.WickElement.from_vector(rng.standard_normal(grid.cells))
    r = qsde.chen_residual(0.25, 0.5, 1.0, insert, qsde.LEFT, grid, 0.5, 0.5)
    worst = _worse(worst, r.max_abs_coeff())
    checks = [_check("chen-additivity-defect", worst <= 1e-12, max_residual=worst)]
    return _summary("chen", checks)


def suite_bphz_constant():
    """Half-line mass of the self-convolved mollifier equals 1/2."""
    checks = []
    for name, rho in (("quartic-bump", qsde.quartic_bump),
                      ("triangle-bump", qsde.triangle_bump)):
        for eps in (0.1, 0.01):
            val = qsde.bphz_constant(rho, eps)
            checks.append(_check(f"renorm-constant-{name}-eps-{eps}",
                                 abs(val - 0.5) <= 1e-6, value=val))
    return _summary("bphz-constant", checks)


def suite_ito(q_grid=(0.5,)):
    """One-step Ito identity (p=2, exact) and the p=3 convergence slope."""
    checks = []
    grid = qsde.TimeGrid(1.0, 64)
    for q in (0.0, 0.5, -0.5):
        step = qsde.ito_step(2, 0.5, grid, q)
        dt = step["dt"]
        delta = qsde.qbm(0.5, 0.5 + dt, grid, q)
        expected = wickalg.multiply(delta, delta, q)
        exact = (step["residual"] - expected).max_abs_coeff()
        checks.append(_check(f"ito-one-step-square-q-{q}", exact <= 1e-12,
                             max_deviation=exact))
    for q in q_grid:
        report = qsde.ito_residual(3, 0.5, grid, q)
        checks.append(_check(
            "ito-cubic-convergence", 1.4 <= report["fit_slope"] <= 1.6
            and report["matched_convention"] == "unordered", report=report))
    return _summary("ito", checks)


def _summary(name: str, checks: list[dict]) -> dict:
    return {"suite": name, "passed": all(c["passed"] for c in checks),
            "checks": checks}


SUITES = {
    "commutation": suite_commutation,
    "wick-oracle": suite_wick_oracle,
    "norm-submult": suite_norm_submult,
    "opbounds": suite_opbounds,
    "disentangle": suite_disentangle,
    "counterterm": suite_counterterm,
    "chen": suite_chen,
    "bphz-constant": suite_bphz_constant,
    "ito": suite_ito,
}


def run_suites(names, **options) -> dict:
    """Run each suite with the options it names; other options but seed are an error."""
    if names == ["all"] or names == "all":
        names = list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    reads = {name: set(inspect.signature(SUITES[name]).parameters) for name in names}
    unread = sorted(set(options) - {"seed"} - set().union(*reads.values()))
    if unread:
        raise ValueError(f"no chosen suite ({', '.join(names)}) reads {', '.join(unread)}")
    results = [SUITES[name](**{k: v for k, v in options.items() if k in reads[name]})
               for name in names]
    return {"suites": results, "passed": all(r["passed"] for r in results)}
