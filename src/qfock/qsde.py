"""Desk-scale q-Brownian rough-path checks on a finite time grid.

The one-particle space is spanned by normalized cell indicators of a uniform
grid, so increments of the q-Brownian motion are chaos-1 Wick elements and
all identities (Chen, the one-step Ito residual) hold exactly in the symbolic
algebra, up to floating-point summation.

The Ito step involves only B_t and its increment, of disjoint supports, so it
runs at dimension <= 2 in their orthonormal basis U: Γ(U) commutes with the Wick
product and keeps chaos norms (Bożejko–Kümmerer–Speicher 1997).  Lévy areas and
Chen residuals stay dense, since the ordered-square kernel has full rank.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .combinat import Pairing
from .fock import FockTensor
from .polywick import InsertionPattern, delta_R
from .wickalg import WickElement, delta_q, multiply, triple_norm

LEFT = "L"
RIGHT = "R"

_LEG_INSERT_LEG = InsertionPattern.from_string("LIL")


@dataclass(frozen=True)
class TimeGrid:
    """A uniform grid on [0, T] whose cell indicators form the basis."""

    horizon: float
    cells: int

    def __post_init__(self):
        if self.horizon <= 0 or self.cells < 1:
            raise ValueError("need horizon > 0 and at least one cell")

    @property
    def dt(self) -> float:
        return self.horizon / self.cells

    def cell_index(self, x: float) -> int:
        i = round(x / self.dt)
        if abs(x - i * self.dt) > 1e-9 * max(1.0, self.horizon) or not 0 <= i <= self.cells:
            raise ValueError(f"endpoint {x} is not grid-aligned on {self.cells} cells")
        return int(i)


def qbm(s: float, t: float, grid: TimeGrid, q: float) -> WickElement:
    """Signed increment of the q-Brownian motion as a chaos-1 element.

    The coefficient vector puts sqrt(dt) on every cell of [s, t]; the q only
    enters through the ambient algebra, not the chaos representation.
    """
    a, b = grid.cell_index(s), grid.cell_index(t)
    sign = 1.0 if b >= a else -1.0
    lo, hi = min(a, b), max(a, b)
    coeffs = np.zeros(grid.cells)
    coeffs[lo:hi] = sign * np.sqrt(grid.dt)
    if lo == hi:
        return WickElement.zero(grid.cells)
    return WickElement.from_vector(coeffs)


def levy_area_tensor(s: float, t: float, side: str, grid: TimeGrid,
                     diag_weight: float = 0.0) -> FockTensor:
    """Grid evaluation of the ordered-square kernel over [s, t]^2.

    LEFT puts weight dt on strictly increasing cell pairs and ``diag_weight·dt``
    on the diagonal; RIGHT is the transpose.
    """
    if side not in (LEFT, RIGHT):
        raise ValueError("side must be 'L' or 'R'")
    a, b = sorted((grid.cell_index(s), grid.cell_index(t)))
    data = np.zeros((grid.cells, grid.cells))
    block = np.triu(np.full((b - a, b - a), grid.dt), 1)
    np.fill_diagonal(block, diag_weight * grid.dt)
    data[a:b, a:b] = block
    if side == RIGHT:
        data = data.T
    return FockTensor(grid.cells, data)


def levy_area(a: WickElement, s: float, t: float, side: str, grid: TimeGrid,
              q: float, diag_weight: float = 0.0) -> WickElement:
    """Levy area with the operator ``a`` inserted between the two legs."""
    if a.d != grid.cells:
        raise ValueError(f"the inserted element has d = {a.d}; the grid has {grid.cells} cells")
    F = levy_area_tensor(s, t, side, grid, diag_weight)
    ones = WickElement.one(grid.cells)
    pi = Pairing.empty(_LEG_INSERT_LEG.leg_context())
    return delta_R(_LEG_INSERT_LEG, pi, F, [ones, a, ones], q)


def chen_residual(s: float, u: float, t: float, a: WickElement, side: str,
                  grid: TimeGrid, q: float, diag_weight: float = 0.0) -> WickElement:
    """Additivity defect of the Levy area over a split point.

    Contract: the defect equals the product of the two sub-increments around
    the insertion, so the returned element is zero up to float summation.
    """
    if not (s <= u <= t):
        raise ValueError("need s <= u <= t")
    big = levy_area(a, s, t, side, grid, q, diag_weight)
    left_part = levy_area(a, s, u, side, grid, q, diag_weight)
    right_part = levy_area(a, u, t, side, grid, q, diag_weight)
    if side == LEFT:
        cross = multiply(multiply(qbm(s, u, grid, q), a, q), qbm(u, t, grid, q), q)
    else:
        cross = multiply(multiply(qbm(u, t, grid, q), a, q), qbm(s, u, grid, q), q)
    return big - left_part - right_part - cross


# ---------------------------------------------------------------------------
# renormalisation constant
# ---------------------------------------------------------------------------


def quartic_bump(x: float) -> float:
    """(15/16)(1-x^2)^2 on [-1, 1]."""
    return 15.0 / 16.0 * (1.0 - x * x) ** 2 if abs(x) <= 1.0 else 0.0


def triangle_bump(x: float) -> float:
    """1 - |x| on [-1, 1]."""
    return max(0.0, 1.0 - abs(x))


def bphz_constant(mollifier, eps: float) -> float:
    """The half-line mass of the self-convolved mollifier at scale eps.

    Computes ``∫_0^∞ ∫ ρ_eps(s-z) ρ_eps(z) dz ds`` by nested adaptive
    quadrature.  For any even normalized mollifier the value is 1/2,
    independently of eps; a non-finite result raises ValueError.
    """
    tol = 1e-9  # absolute error of the outer quadrature; the inner ones get 1e-2 of it
    if eps <= 0:
        raise ValueError("eps must be positive")
    total, _ = quad(mollifier, -1.0, 1.0, epsabs=tol * 1e-2, limit=200)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"mollifier is not normalized (integral {total})")
    for x in (0.15, 0.4, 0.85):
        if abs(mollifier(x) - mollifier(-x)) > 1e-9:
            raise ValueError("mollifier is not even")

    def scaled(x: float) -> float:
        return mollifier(x / eps) / eps

    def inner(s: float) -> float:
        lo, hi = max(-eps, s - eps), min(eps, s + eps)
        if lo >= hi:
            return 0.0
        val, _ = quad(lambda z: scaled(s - z) * scaled(z), lo, hi,
                      epsabs=tol * 1e-2, limit=200)
        return val

    out, _ = quad(inner, 0.0, 2.0 * eps, epsabs=tol, limit=200,
                  points=[0.0, eps, 2.0 * eps])
    if not np.isfinite(out):  # the integrand, of size 1/eps², overflows below eps ~ 1e-154
        raise ValueError(f"the constant at eps = {eps} is not finite ({out})")
    return float(out)


# ---------------------------------------------------------------------------
# discrete Ito residual
# ---------------------------------------------------------------------------


def _powers(base: WickElement, n: int, q: float) -> list[WickElement]:
    pows = [WickElement.one(base.d)]
    for _ in range(n):
        pows.append(multiply(pows[-1], base, q))
    return pows


def _map_legs(A: WickElement, M: np.ndarray) -> WickElement:
    """Apply the ``d_in × d_out`` matrix ``M`` to every leg of every chaos of ``A``."""
    chaos = {}
    for k, F in A.chaos.items():
        X = F.data
        for _ in range(k):  # each pass maps the first leg and appends it last
            X = np.tensordot(X, M, axes=(0, 0))
        chaos[k] = FockTensor(M.shape[1], X)
    return WickElement(M.shape[1], chaos)


def _ito_terms(p: int, B: WickElement, D: WickElement, q: float):
    """The one-step residual and the unordered prediction, at the dimension of B and D."""
    X = B + D
    powX = _powers(X, p, q)
    powB = _powers(B, p, q)
    residual = powX[p] - powB[p]
    for ell in range(p):
        residual = residual - multiply(multiply(powB[ell], D, q), powB[p - 1 - ell], q)
    residual = residual.trim()

    pred_unordered = WickElement.zero(B.d)
    for r in range(1, p + 1):
        for s in range(r + 1, p + 1):
            mid = delta_q(powB[s - r - 1], q)
            pred_unordered = pred_unordered + multiply(
                multiply(powB[r - 1], mid, q), powB[p - s], q)
    return residual, pred_unordered


def _compressed_ito_terms(p: int, t: float, grid: TimeGrid, q: float):
    """``_ito_terms`` in the orthonormal basis ``U`` of span{B, D} (no B at t = 0), and ``U``."""
    if p not in (2, 3, 4):
        raise ValueError("polynomial degree must be 2, 3, or 4")
    B = qbm(0.0, t, grid, q)
    D = qbm(t, t + grid.dt, grid, q)
    U = np.stack([v / np.linalg.norm(v) for v in (B.coeff(1).data, D.coeff(1).data)
                  if v.any()], axis=1)
    return (*_ito_terms(p, _map_legs(B, U), _map_legs(D, U), q), U)


def ito_step(p: int, t: float, grid: TimeGrid, q: float) -> dict:
    """One-step residual data for the monomial x^p at time t, at d = cells.

    The residual subtracts the value increment and the noncommutative
    first-derivative terms against the increment; the low-chaos part
    (degrees 0..p-2) per unit time is what the renormalisation constant
    predicts via ``2C · B^a Δ_q(B^b) B^c`` summed over second-derivative
    splits, with C = 1/2 and the split pairs counted once ("unordered") or
    twice ("ordered").  The algebra runs at dimension <= 2, expanded by U^T.
    """
    residual, pred, U = _compressed_ito_terms(p, t, grid, q)
    residual = _map_legs(residual, U.T)
    pred_unordered = _map_legs(pred, U.T)
    return {
        "residual": residual,
        "low_chaos": residual.chaos_part(range(p - 1)),
        "pred_unordered": pred_unordered,
        "pred_ordered": pred_unordered.scale(2.0),
        "dt": grid.dt,
    }


def ito_residual(p: int, t: float, grid: TimeGrid, q: float) -> dict:
    """Residual-vs-prediction report across a sweep of grids.

    The sweep has the given grid and the grids of ``cells // m`` cells for
    m in {2, 4, 8}, each at least 2 cells and at most the given number (the
    dyadic coarsenings when 8 divides it); t must be a point of each with
    t + dt within the horizon.  For each grid the norm
    ``|||R_low - dt·prediction|||`` of the compressed terms (equal to that at
    d = cells, U being an isometry) is recorded under the convention that
    matches, and the log-log slope against dt is fitted.

    For p in {2, 3} the low-chaos window contains only the correction term
    plus an O(dt^{3/2}) remainder, so one convention matches cleanly.  For
    p = 4 the window (degrees <= 2) also picks up the square-increment
    fluctuation, which stays O(dt) in the graded norm, so the report may
    legitimately flag "neither".
    """
    cells = sorted({min(grid.cells, max(2, grid.cells // m)) for m in (8, 4, 2, 1)})
    grids = [TimeGrid(grid.horizon, m) for m in cells]
    for g in grids:  # every step needs t on its grid and t + dt within the horizon
        try:
            last = g.cell_index(t) == g.cells
        except ValueError:
            raise ValueError(f"t = {t} must be a point of every grid in the sweep {cells}, "
                             f"but is off the {g.cells}-cell grid (step {g.dt})") from None
        if last:
            raise ValueError(f"t + dt = {t + g.dt} passes the horizon {g.horizon} "
                             f"on the {g.cells}-cell grid in the sweep {cells}")
    mismatches = {"unordered": [], "ordered": []}
    norms = {"unordered": [], "ordered": []}
    scales = []
    dts = [g.dt for g in grids]
    for g, dt in zip(grids, dts):
        residual, pu, _ = _compressed_ito_terms(p, t, g, q)
        low, po = residual.chaos_part(range(p - 1)), pu.scale(2.0)
        for name, pred in (("unordered", pu), ("ordered", po)):
            diff = low - pred.scale(dt)
            norms[name].append(triple_norm(diff, q))
            mismatches[name].append(triple_norm(low.scale(1.0 / dt) - pred, q))
        scales.append(max(triple_norm(pu, q), triple_norm(po, q), 1.0))

    matched = "neither"
    finest = -1
    candidates = [name for name in ("unordered", "ordered")
                  if mismatches[name][finest] <= 0.3 * scales[finest] + 1e-9]
    if candidates:
        matched = min(candidates, key=lambda name: mismatches[name][finest])

    report_norms = norms[matched] if matched != "neither" else norms["unordered"]
    positive = [(dt, r) for dt, r in zip(dts, report_norms) if r > 1e-300]
    if len(positive) >= 2:
        xs = np.log([dt for dt, _ in positive])
        ys = np.log([r for _, r in positive])
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = 0.0
    return {
        "p": p,
        "q": q,
        "grids": cells,
        "residual_norms": [float(r) for r in report_norms],
        "fit_slope": slope,
        "matched_convention": matched,
    }
