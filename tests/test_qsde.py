import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import Q_GRID, random_element
from qfock import qsde
from qfock.combinat import Pairing
from qfock.polywick import InsertionPattern, delta_R
from qfock.qsde import (LEFT, RIGHT, TimeGrid, bphz_constant, chen_residual,
                        ito_residual, ito_step, levy_area, levy_area_tensor,
                        qbm, quartic_bump, triangle_bump)
from qfock.wickalg import (WickElement, delta_q, multiply, norm_constants,
                           triple_norm, vacuum_expectation)


# -- the grid and increments ------------------------------------------------------


def test_grid_alignment():
    grid = TimeGrid(1.0, 8)
    assert grid.cell_index(0.375) == 3
    with pytest.raises(ValueError, match="grid-aligned"):
        grid.cell_index(0.3)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)


def test_qbm_variance_and_additivity():
    grid = TimeGrid(2.0, 16)
    q = 0.4
    B = qbm(0.25, 1.75, grid, q)
    assert vacuum_expectation(multiply(B, B, q)) == pytest.approx(1.5)
    assert qbm(0.5, 0.5, grid, q).support() == ()
    total = qbm(0.0, 0.75, grid, q) + qbm(0.75, 2.0, grid, q)
    assert total.allclose(qbm(0.0, 2.0, grid, q), 1e-14)
    # reversed endpoints flip the sign
    assert qbm(1.0, 0.5, grid, q).allclose(qbm(0.5, 1.0, grid, q).scale(-1.0), 1e-14)


def test_qbm_covariance_is_min():
    grid = TimeGrid(1.0, 8)
    q = -0.5
    for s, t in [(0.25, 0.75), (0.5, 0.5), (0.875, 0.125)]:
        got = vacuum_expectation(multiply(qbm(0, s, grid, q), qbm(0, t, grid, q), q))
        assert got == pytest.approx(min(s, t))


def test_qbm_chaos_norm_closed_form():
    q = 0.5
    nc = norm_constants(q)
    grid = TimeGrid(1.0, 16)
    B = qbm(0.25, 1.0, grid, q)
    assert triple_norm(B, q) == pytest.approx(2 * nc.C ** 1.5 * nc.D * np.sqrt(0.75))


# -- Levy areas --------------------------------------------------------------------


def test_levy_tensor_norm_approaches_continuum():
    prev = 0.0
    for m in (8, 32, 128, 512):
        F = levy_area_tensor(0.0, 1.0, LEFT, TimeGrid(1.0, m), 0.0)
        val = F.norm()
        assert val == pytest.approx(
            TimeGrid(1.0, m).dt * np.sqrt(m * (m - 1) / 2), rel=1e-12)
        assert val > prev
        prev = val
    assert prev == pytest.approx(1 / np.sqrt(2), rel=5e-3)


def test_levy_tensor_diagonal_weight_and_sides():
    grid = TimeGrid(1.0, 4)
    F = levy_area_tensor(0.25, 1.0, LEFT, grid, diag_weight=0.5)
    assert F.data[1, 2] == pytest.approx(grid.dt)
    assert F.data[2, 1] == 0.0
    assert F.data[1, 1] == pytest.approx(0.5 * grid.dt)
    assert F.data[0, 2] == 0.0  # outside [s, t)
    G = levy_area_tensor(0.25, 1.0, RIGHT, grid, diag_weight=0.5)
    assert np.allclose(G.data, F.data.T)


def _levy_area_tensor_loop(s, t, side, grid, diag_weight):
    """The kernel entry by entry, as a double loop over the cells of [s, t)."""
    a, b = sorted((grid.cell_index(s), grid.cell_index(t)))
    data = np.zeros((grid.cells, grid.cells))
    for k in range(a, b):
        data[k, k] = diag_weight * grid.dt
        for l in range(k + 1, b):
            data[k, l] = grid.dt
    return data.T if side == RIGHT else data


def test_levy_tensor_matches_the_loop_bit_for_bit():
    grid = TimeGrid(1.0, 16)
    spans = [(0.0, 1.0), (0.25, 0.25), (0.0, 0.0), (1.0, 1.0), (0.125, 0.6875), (0.9375, 1.0)]
    for (s, t), side, w in itertools.product(spans, (LEFT, RIGHT), (0.0, 0.5)):
        got = levy_area_tensor(s, t, side, grid, w).data
        want = _levy_area_tensor_loop(s, t, side, grid, w)
        assert got.tobytes() == want.tobytes(), (s, t, side, w)


def test_levy_area_degenerate_interval():
    grid = TimeGrid(1.0, 8)
    el = levy_area(WickElement.one(8), 0.5, 0.5, LEFT, grid, 0.3)
    assert el.support() == ()


def test_levy_area_wick_ordered_has_no_scalar_part(rng):
    # self-pairings of the two legs are excluded, so the vacuum expectation
    # vanishes for a unit insertion regardless of the diagonal weight
    grid = TimeGrid(1.0, 8)
    for w in (0.0, 0.5):
        el = levy_area(WickElement.one(8), 0.0, 1.0, LEFT, grid, 0.4, w)
        assert vacuum_expectation(el) == 0.0
        assert np.allclose(el.coeff(2).data,
                           levy_area_tensor(0.0, 1.0, LEFT, grid, w).data)


def test_levy_area_is_delta_r_between_units(rng):
    # the insertion product alone, bit for bit what delta_R gives with unit
    # outer operators
    grid = TimeGrid(1.0, 8)
    one = WickElement.one(8)
    lil = InsertionPattern.from_string("LIL")
    for chaos, side, q, w in [(0, LEFT, 0.5, 0.0), (2, RIGHT, -0.7, 0.5), (3, LEFT, 0.9, 0.5)]:
        a = random_element(rng, 8, chaos)
        F = levy_area_tensor(0.25, 0.875, side, grid, w)
        want = delta_R(lil, Pairing.empty(lil.leg_context()), F, [one, a, one], q)
        got = levy_area(a, 0.25, 0.875, side, grid, q, w)
        assert sorted(got.chaos) == sorted(want.chaos)
        for k, G in want.chaos.items():
            assert got.chaos[k].data.tobytes() == G.data.tobytes()


def test_levy_area_insertion_path(rng):
    # a chaos-1 insertion contributes chaos-3 and chaos-1 parts
    grid = TimeGrid(1.0, 8)
    a = WickElement.from_vector(rng.standard_normal(8))
    el = levy_area(a, 0.0, 1.0, LEFT, grid, 0.5, 0.0)
    assert set(el.support()) <= {1, 3}
    assert 3 in el.support()


@pytest.mark.parametrize("side", [LEFT, RIGHT])
@pytest.mark.parametrize("diag_weight", [0.0, 0.5])
def test_chen_identity(side, diag_weight, rng):
    grid = TimeGrid(1.0, 16)
    a = random_element(rng, 16, 1)
    for q in (0.0, 0.5, -0.5):
        for (s, u, t) in [(0.0, 0.25, 1.0), (0.125, 0.5, 0.9375),
                          (0.0, 0.0, 0.5), (0.25, 1.0, 1.0)]:
            r = chen_residual(s, u, t, a, side, grid, q, diag_weight)
            assert r.max_abs_coeff() <= 1e-12


def test_levy_area_refuses_a_mismatched_insertion():
    grid = TimeGrid(1.0, 4)
    for fn, args in [(levy_area, (WickElement.one(3), 0.0, 1.0, LEFT, grid, 0.5)),
                     (chen_residual, (0.0, 0.5, 1.0, WickElement.one(3), LEFT, grid, 0.5))]:
        with pytest.raises(ValueError, match="d = 3; the grid has 4 cells"):
            fn(*args)


def test_chen_requires_ordered_times(rng):
    grid = TimeGrid(1.0, 8)
    with pytest.raises(ValueError):
        chen_residual(0.5, 0.25, 1.0, WickElement.one(8), LEFT, grid, 0.5)


# -- renormalisation constant ----------------------------------------------------------


def test_bphz_constant_values():
    # the function's own budget: absolute error 1e-9
    for rho in (quartic_bump, triangle_bump):
        for eps in (0.1, 0.01):
            assert abs(bphz_constant(rho, eps) - 0.5) <= 1e-9


@pytest.mark.parametrize("rho", [quartic_bump, triangle_bump])
def test_bphz_constant_splits_at_the_kinks(rho):
    # split at z = 0 and z = s, the inner quadrature does not bisect toward the kinks
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return rho(x)

    bphz_constant(counted, 0.1)
    assert calls <= 5000


def test_bphz_constant_rejects_bad_mollifiers():
    with pytest.raises(ValueError, match="normalized"):
        bphz_constant(lambda x: quartic_bump(x) * 2.0, 0.1)
    with pytest.raises(ValueError, match="even"):
        bphz_constant(_skewed, 0.1)
    with pytest.raises(ValueError):
        bphz_constant(quartic_bump, -0.1)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_bphz_constant_fails_closed_below_the_float_range():
    # the integrand, of size 1/eps², overflows: inf for the triangle at 1e-154, nan below
    for rho, eps in [(triangle_bump, 1e-154), (quartic_bump, 1e-155), (triangle_bump, 1e-155),
                     (quartic_bump, 1e-320), (triangle_bump, 1e-320)]:
        with pytest.raises(ValueError, match=f"eps = {eps} is not finite"):
            bphz_constant(rho, eps)


def _skewed(x):
    # normalized but uneven bump
    if -1 <= x <= 0:
        return 0.75 * (1 + x)
    if 0 < x <= 1:
        return 1.25 * (1 - x)
    return 0.0


# -- discrete Ito residual ----------------------------------------------------------------


def test_ito_step_square_is_exact_and_q_independent():
    grid = TimeGrid(1.0, 32)
    reference = None
    for q in (-0.9, -0.5, 0.0, 0.5, 0.9):
        step = ito_step(2, 0.5, grid, q)
        delta = qbm(0.5, 0.5 + grid.dt, grid, q)
        expected = multiply(delta, delta, q)
        assert (step["residual"] - expected).max_abs_coeff() <= 1e-14
        assert float(step["low_chaos"].coeff(0).data) == pytest.approx(grid.dt)
        if reference is None:
            reference = step["residual"]
        else:
            assert step["residual"].allclose(reference, 1e-14)


def test_ito_step_cubic_low_chaos_value():
    # the degree-(p-2) window of the one-step residual is dt(2+q)(B + dB)
    grid = TimeGrid(1.0, 16)
    q = 0.5
    step = ito_step(3, 0.5, grid, q)
    B = qbm(0.0, 0.5, grid, q)
    dB = qbm(0.5, 0.5 + grid.dt, grid, q)
    expected = (B + dB).scale(grid.dt * (2 + q))
    assert (step["low_chaos"] - expected).max_abs_coeff() <= 1e-13
    assert step["pred_unordered"].allclose(B.scale(2 + q), 1e-13)


def test_ito_residual_report_schema_and_slope():
    rep = ito_residual(3, 0.5, TimeGrid(1.0, 64), 0.5)
    assert sorted(rep) == ["fit_slope", "grids", "matched_convention", "p",
                           "q", "residual_norms"]
    assert rep["grids"] == [8, 16, 32, 64]
    assert rep["matched_convention"] == "unordered"
    assert 1.4 <= rep["fit_slope"] <= 1.6


def test_ito_residual_square_report():
    rep = ito_residual(2, 0.5, TimeGrid(1.0, 32), -0.5)
    assert rep["matched_convention"] == "unordered"
    assert max(rep["residual_norms"]) <= 1e-12


def test_ito_rejects_unsupported_degree():
    with pytest.raises(ValueError):
        ito_step(5, 0.5, TimeGrid(1.0, 8), 0.5)


def _dense_ito_step(p, t, grid, q):
    """The one-step Ito algebra at d = cells, from ``qbm`` and ``multiply`` alone."""
    B = qbm(0.0, t, grid, q)
    D = qbm(t, t + grid.dt, grid, q)

    def powers(base):
        pows = [WickElement.one(grid.cells)]
        for _ in range(p):
            pows.append(multiply(pows[-1], base, q))
        return pows

    powX, powB = powers(B + D), powers(B)
    residual = powX[p] - powB[p]
    for ell in range(p):
        residual = residual - multiply(multiply(powB[ell], D, q), powB[p - 1 - ell], q)
    pred = WickElement.zero(grid.cells)
    for r in range(1, p + 1):
        for s in range(r + 1, p + 1):
            mid = delta_q(powB[s - r - 1], q)
            pred = pred + multiply(multiply(powB[r - 1], mid, q), powB[p - s], q)
    return residual.trim(), pred


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("p", [2, 3, 4])
def test_ito_step_matches_the_dense_algebra(p, q):
    for cells, t in itertools.product((8, 16, 32), (0.0, 0.25, 0.5)):
        step = ito_step(p, t, TimeGrid(1.0, cells), q)
        residual, pred = _dense_ito_step(p, t, TimeGrid(1.0, cells), q)
        for got, want in [(step["residual"], residual), (step["pred_unordered"], pred),
                          (step["pred_ordered"], pred.scale(2.0)),
                          (step["low_chaos"], residual.chaos_part(range(p - 1)))]:
            assert got.d == cells
            assert (got - want).max_abs_coeff() <= 1e-12, (cells, t)
            assert triple_norm(got, q) == pytest.approx(triple_norm(want, q), rel=1e-12)


def _dense_ito_report(p, t, grid, q):
    """``ito_residual``'s fields, from ``_dense_ito_step`` on each grid of the sweep."""
    cells = sorted({min(grid.cells, max(2, grid.cells // m)) for m in (8, 4, 2, 1)})
    dts = [grid.horizon / m for m in cells]
    weights = {"unordered": 1.0, "ordered": 2.0}
    norms = {name: [] for name in weights}
    for m, dt in zip(cells, dts):
        residual, pred = _dense_ito_step(p, t, TimeGrid(grid.horizon, m), q)
        low = residual.chaos_part(range(p - 1))
        for name, w in weights.items():
            norms[name].append(triple_norm(low - pred.scale(w * dt), q))
    # the convention is read on the finest grid, the last of the sweep
    mismatches = {name: triple_norm(low.scale(1.0 / dt) - pred.scale(w), q)
                  for name, w in weights.items()}
    scale = max(triple_norm(pred, q), triple_norm(pred.scale(2.0), q), 1.0)
    candidates = [name for name in weights if mismatches[name] <= 0.3 * scale + 1e-9]
    matched = min(candidates, key=mismatches.get) if candidates else "neither"
    report_norms = norms["unordered" if matched == "neither" else matched]
    positive = [(dt, r) for dt, r in zip(dts, report_norms) if r > 1e-300]
    slope = float(np.polyfit(*np.log(positive).T, 1)[0]) if len(positive) >= 2 else 0.0
    return {"grids": cells, "matched_convention": matched,
            "residual_norms": report_norms, "fit_slope": slope}


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("p", [2, 3, 4])
def test_ito_residual_matches_a_dense_report(p, q):
    # t = 0.25 is off the 2-cell grid that the 16-cell sweep starts from
    for cells, t in [(16, 0.0), (16, 0.5), (32, 0.0), (32, 0.25), (32, 0.5)]:
        got = ito_residual(p, t, TimeGrid(1.0, cells), q)
        want = _dense_ito_report(p, t, TimeGrid(1.0, cells), q)
        assert got["grids"] == want["grids"]
        assert got["matched_convention"] == want["matched_convention"]
        if p == 2:  # the low chaos is dt - dt·1: rounding noise, weighted C^{3/2} in the norm
            noise = 1e-12 * norm_constants(q).C ** 1.5
            assert max(got["residual_norms"] + want["residual_norms"]) <= noise
        else:
            assert got["residual_norms"] == pytest.approx(want["residual_norms"], rel=1e-12)
            assert got["fit_slope"] == pytest.approx(want["fit_slope"], abs=1e-9)


def test_ito_algebra_runs_once_per_call(monkeypatch):
    # the grids of a sweep differ only in dt, so four grids cost what one does
    calls = []

    def counting(A, B, q):
        calls.append(1)
        return multiply(A, B, q)

    monkeypatch.setattr(qsde, "multiply", counting)
    counts = []
    for cells in (64, 2):  # sweeps of 4 grids and of 1
        calls.clear()
        counts.append((len(ito_residual(3, 0.5, TimeGrid(1.0, cells), 0.5)["grids"]), len(calls)))
    calls.clear()
    ito_step(3, 0.5, TimeGrid(1.0, 64), 0.5)
    assert calls and counts == [(4, len(calls)), (1, len(calls))], (counts, len(calls))


@pytest.mark.parametrize("p", [3, 4])
def test_ito_residual_builds_no_cells_squared_tensor(p):
    tracemalloc.start()
    try:
        rep = ito_residual(p, 0.5, TimeGrid(1.0, 4096), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["grids"] == [512, 1024, 2048, 4096]
    assert peak < 2 ** 20


@pytest.mark.parametrize("t,message", [(1.0, "passes the horizon"),
                                       (0.3, "must be a point of every grid")])
def test_ito_residual_refuses_a_step_off_the_sweep(t, message):
    with pytest.raises(ValueError, match=message):
        ito_residual(3, t, TimeGrid(1.0, 16), 0.5)
