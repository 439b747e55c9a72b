"""The qfock benchmark workloads, as rounds of seeded operations.

A workload is a fixed schedule of operation kinds and shapes (one *round*),
always run in the same order; the seeded generator only draws the numbers
fed to each operation.  A run
repeats whole rounds, so every run, whatever its seed, sees the same mix of
kinds and its latency percentiles fall at the same place in that mix.

Every library call an operation makes goes through ``tr.call(name, fn, ...)``
so that a traced run can record one span per call from outside the library;
an untraced run calls ``fn`` directly.  ``check`` verifies an operation's
result off the clock and returns False when it is outside tolerance.
"""
from __future__ import annotations

import json
from math import comb, factorial, perm
from typing import Callable, NamedTuple

import numpy as np

from qfock import combinat, fock, jsonio, polywick, qsde, wickalg
from qfock.fock import FockTensor
from qfock.wickalg import WickElement
from spans import Untraced

Q = (-0.9, -0.5, 0.5, 0.9)


class Op(NamedTuple):
    kind: str
    run: Callable  # run(tr) -> result; the timed part
    check: Callable  # check(result) -> bool; off the clock


def _q(rng) -> float:
    return float(rng.choice(Q))


def _element(rng, d: int, chaos: int) -> WickElement:
    return WickElement(d, {k: FockTensor(d, rng.standard_normal((d,) * k))
                           for k in range(chaos + 1)})


def cross_pairings(A: WickElement, B: WickElement) -> int:
    """Cross pairings ``multiply`` enumerates: Σ_k C(m,k)·n!/(n−k)! per chaos pair."""
    return sum(comb(m, k) * perm(n, k)
               for m in A.chaos for n in B.chaos for k in range(min(m, n) + 1))


def _emit(tr, command: str, inputs: dict, outputs: Callable[[], dict]) -> str:
    """The JSON document ``qfock <command>`` prints for this result."""
    def render():
        doc = {"command": command, "inputs": inputs, "outputs": outputs(),
               "status": "ok", "elapsed_ms": 0}
        return jsonio.dumps(doc) + "\n"

    return tr.call("cli.emit", render, measure=len)


def _parses_back(text: str, key: str, value) -> bool:
    return json.loads(text)["outputs"][key] == value


# ---------------------------------------------------------------------------
# symbolic, first half: the product and its norm
# ---------------------------------------------------------------------------


def _vacuum_of_product(A: WickElement, B: WickElement, q: float) -> float:
    """φ(AB) = Σ_k <F_k reversed, P_q G_k>: the fully paired part of the product."""
    total = 0.0
    for k, F in A.chaos.items():
        if k in B.chaos:
            rev = FockTensor(F.d, np.transpose(F.data, list(range(k))[::-1]))
            total += fock.q_inner(rev, B.chaos[k], q)
    return total


def product(rng, d: int, chaos: int) -> Op:
    A, B, q = _element(rng, d, chaos), _element(rng, d, chaos), _q(rng)

    def run(tr):
        AB = tr.call("wickalg.multiply", wickalg.multiply, A, B, q, tag=f"d{d}c{chaos}",
                     measure=lambda _: cross_pairings(A, B))
        return AB, [tr.call("wickalg.triple_norm", wickalg.triple_norm, X, q)
                    for X in (AB, A, B)]

    def check(res):
        AB, (n_ab, n_a, n_b) = res
        vac = _vacuum_of_product(A, B, q)
        return (n_ab <= n_a * n_b + 1e-9
                and abs(wickalg.vacuum_expectation(AB) - vac) <= 1e-10 * max(1.0, abs(vac)))

    return Op(f"product-d{d}c{chaos}", run, check)


# ---------------------------------------------------------------------------
# fock-oracle: the matrix route
# ---------------------------------------------------------------------------


def _out_sectors(op, sectors) -> list[int]:
    outs = set()
    for k in sectors:
        outs.update(op.block(k).keys())
    return sorted(outs) if outs else [0]


def _largest_block(blocks: dict) -> int:
    return max((m.size for m in blocks.values()), default=0)


def oracle(rng, d: int, chaos: int, cutoff: int) -> Op:
    A, B, q = _element(rng, d, chaos), _element(rng, d, chaos), _q(rng)

    def run(tr):
        AB = tr.call("wickalg.multiply", wickalg.multiply, A, B, q, tag=f"d{d}c{chaos}",
                     measure=lambda _: cross_pairings(A, B))
        op_ab, op_a, op_b = (tr.call("wickalg.to_operator", wickalg.to_operator, X, q, cutoff)
                             for X in (AB, A, B))
        composed = tr.call("fock.compose", op_a.compose, op_b)
        sectors = sorted(op_ab.exact_sectors & composed.exact_sectors)
        outs = set()
        for op in (op_ab, composed):
            for k in sectors:
                outs.update(tr.call("fock.block", op.block, k, measure=_largest_block))
        outs = sorted(outs) if outs else [0]
        m1, m2 = (tr.call("fock.restricted_matrix", op.restricted_matrix, sectors, outs,
                          measure=lambda m: m.size) for op in (op_ab, composed))
        return float(np.max(np.abs(m1 - m2)))

    return Op(f"oracle-d{d}c{chaos}", run, lambda dev: dev <= 1e-10)


def norm_f0(rng, degree: int, cutoff: int) -> Op:
    """Criterion 08's shape: a single-chaos element at d=2 under the flat metric."""
    F, q = FockTensor(2, rng.standard_normal((2,) * degree)), _q(rng)

    def run(tr):
        op = tr.call("wickalg.to_operator", wickalg.to_operator,
                     WickElement.from_tensor(F), q, cutoff)
        sectors = sorted(op.exact_sectors)
        return op, sectors, tr.call("fock.operator_norm", fock.operator_norm, op, sectors,
                                    tag="f0")

    def check(res):
        op, sectors, est = res
        exact = float(np.linalg.norm(op.restricted_matrix(sectors, _out_sectors(op, sectors)), 2))
        nc = wickalg.norm_constants(q)
        bound = (degree + 1) * nc.D ** degree * nc.C * F.norm()
        return abs(est - exact) <= 1e-6 * exact and max(est, exact) <= bound + 1e-9

    return Op(f"norm-f0-n{degree}", run, check)


def _fq_norm_exact(op, sectors, q: float) -> float:
    """Largest singular value of P_q^{1/2} M P_q^{-1/2}, by dense SVD."""
    def power(k, p):
        vals, vecs = np.linalg.eigh(fock.pq_matrix(op.d, k, q))
        return (vecs * vals ** p) @ vecs.T

    outs = _out_sectors(op, sectors)
    rows = [np.hstack([power(ko, 0.5) @ op.restricted_matrix([ki], [ko]) @ power(ki, -0.5)
                       for ki in sectors]) for ko in outs]
    return float(np.linalg.norm(np.vstack(rows), 2))


def norm_fq(rng, d: int, chaos: int, cutoff: int) -> Op:
    A, q = _element(rng, d, chaos), _q(rng)

    def run(tr):
        op = tr.call("wickalg.to_operator", wickalg.to_operator, A, q, cutoff)
        sectors = sorted(op.exact_sectors)
        return op, sectors, tr.call("fock.operator_norm", fock.operator_norm, op, sectors,
                                    metric="fq", q=q, tag="fq")

    def check(res):
        op, sectors, est = res
        exact = _fq_norm_exact(op, sectors, q)
        return abs(est - exact) <= 1e-6 * exact

    return Op("norm-fq", run, check)


def _free_square_norm(tr, cutoff: int) -> float:
    e = np.array([1.0])
    op = tr.call("wickalg.to_operator", wickalg.to_operator,
                 wickalg.wick_product_vectors([e, e], 0.0), 0.0, cutoff)
    return tr.call("fock.operator_norm", fock.operator_norm, op, sorted(op.exact_sectors),
                   tag="f0")


def free_square(rng, cutoffs: tuple[int, int]) -> Op:
    """The free Wick square, whose norm rises toward 3 as the cutoff grows."""
    cutoff = int(rng.integers(cutoffs[0], cutoffs[1] + 1))

    def check(est):
        below = _free_square_norm(Untraced, cutoff - 1)
        return below - 1e-12 <= est <= 3.0

    return Op("free-square", lambda tr: _free_square_norm(tr, cutoff), check)


# ---------------------------------------------------------------------------
# symbolic, second half: full-pairing and insertion combinatorics
# ---------------------------------------------------------------------------


def _vacuum_moment_oracle(vectors, q: float) -> float:
    """<Ω, ξ(f_1)…ξ(f_n) Ω> on the truncated Fock space, dropping sectors that
    can no longer return to the vacuum, so the cutoff stays at n/2 + 1."""
    n = len(vectors)
    cutoff = n // 2 + 1
    vec = fock.FockVector.vacuum(len(vectors[0]))
    for left, f in enumerate(reversed(vectors)):
        vec = fock.field_operator(f, q, cutoff).apply(vec)
        remaining = n - left - 1
        vec = fock.FockVector(vec.d, {k: a for k, a in vec.sectors.items() if k <= remaining})
    return float(vec.sector(0))


def moment(rng, n: int, d: int) -> Op:
    """``qfock moment --word``: basis vectors spelling a random word."""
    vectors = [np.eye(d)[i] for i in rng.integers(0, d, n)]
    q = _q(rng)

    def run(tr):
        pairs = combinat.double_factorial_odd(n // 2)  # (n-1)!!, as every scheduled n is even
        return tr.call("wickalg.moment", wickalg.moment, vectors, q, measure=lambda _: pairs)

    def check(value):
        if n > 8:
            return bool(np.isfinite(value))
        return abs(value - _vacuum_moment_oracle(vectors, q)) <= 1e-10

    return Op(f"moment-n{n}", run, check)


def expand(rng, n: int, d: int) -> Op:
    fs, q = [rng.standard_normal(d) for _ in range(n)], _q(rng)

    def run(tr):
        return tr.call("wickalg.expand_field_product", wickalg.expand_field_product, fs, q)

    def check(el):
        m = wickalg.moment(fs, q)
        return abs(wickalg.vacuum_expectation(el) - m) <= 1e-10 * max(1.0, abs(m))

    return Op(f"expand-n{n}", run, check)


def _pairing_count(n: int, k: int | None) -> int:
    ks = range(n // 2 + 1) if k is None else [k]
    return sum(perm(n, 2 * j) // (2 ** j * factorial(j)) for j in ks)


def pairings(rng, n: int, k: int | None) -> Op:
    """``qfock pairings --n n [--k k]``: every pairing with its statistics."""
    def run(tr):
        ps = tr.call("combinat.enumerate_pairings", combinat.enumerate_pairings,
                     combinat.IndexSet.range(n), k, measure=len)
        return tr.call("combinat.contraction_stats",
                       lambda: [combinat.contraction_stats(p) for p in ps], measure=len)

    def check(stats):
        return (len(stats) == _pairing_count(n, k)
                and all(crb == cr + sp for cr, sp, crb in stats))

    return Op(f"pairings-n{n}" + ("" if k is None else f"k{k}"), run, check)


_LILIL = polywick.InsertionPattern.from_string("LILIL")


def _insertion_instance(rng, chaos: int):
    fs = [rng.standard_normal(2) for _ in range(3)]
    As = [_element(rng, 2, chaos) for _ in range(4)]
    return fs, As, _q(rng)


def disentangle(rng, chaos: int) -> Op:
    """Criterion 06's shape: the LILIL decomposition at d=2."""
    fs, As, q = _insertion_instance(rng, chaos)

    def run(tr):
        return tr.call("polywick.disentangle_check", polywick.disentangle_check,
                       _LILIL, fs, As, q)

    return Op("disentangle", run, lambda res: (res[0] - res[1]).max_abs_coeff() <= 1e-10)


def delta_r(rng, chaos: int) -> Op:
    """One ``delta_R`` call per leg pairing of LILIL: the right side of criterion 06."""
    fs, As, q = _insertion_instance(rng, chaos)
    vec = dict(zip(_LILIL.leg_slots, fs))
    terms = []
    for pi in combinat.enumerate_pairings(_LILIL.leg_context()):
        coeff = float(np.prod([np.dot(vec[s], vec[t]) for s, t in pi.pairs]))
        free = pi.free()
        F = FockTensor.from_vectors([vec[s] for s in free]) if free else FockTensor.scalar(2, 1.0)
        terms.append((pi, F, coeff))

    def run(tr):
        return [tr.call("polywick.delta_R", polywick.delta_R, _LILIL, pi, F, As, q).scale(c)
                for pi, F, c in terms]

    def check(parts):
        lhs = As[0]
        for f, A in zip(fs, As[1:]):
            lhs = wickalg.multiply(wickalg.multiply(lhs, WickElement.from_vector(f), q), A, q)
        rhs = WickElement.zero(2)
        for part in parts:
            rhs = rhs + part
        return (lhs - rhs).max_abs_coeff() <= 1e-10

    return Op("delta-R", run, check)


_COUNTERTERMS = {
    "quartic2d": (polywick.quartic_2d_configs, {(0, 0): 2, (0, 1): 1}),
    "quartic3d": (polywick.quartic_3d_configs,
                  {(0, 0): 3, (1, 0): 2, (0, 1): 4, (1, 1): 4, (0, 2): 2, (1, 2): 3}),
}


def counterterm(rng, family: str) -> Op:
    configs, target = _COUNTERTERMS[family]

    def run(tr):
        return tr.call("polywick.counterterm_polynomial", polywick.counterterm_polynomial,
                       configs())

    return Op(f"counterterm-{family}", run,
              lambda poly: poly == polywick.DeltaPolynomial(target))


# ---------------------------------------------------------------------------
# rough-path: the q-Brownian harness at d = number of cells
# ---------------------------------------------------------------------------


def ito(rng, p: int, cells: int) -> Op:
    q = _q(rng)

    def run(tr):
        report = tr.call("qsde.ito_residual", qsde.ito_residual, p, 0.5,
                         qsde.TimeGrid(1.0, cells), q, tag=f"p{p}c{cells}")
        inputs = {"cells": cells, "horizon": 1.0, "p": p, "q": q, "t": 0.5}
        return report, _emit(tr, "ito", inputs, lambda: report)

    def check(res):
        report, text = res
        finite = bool(np.all(np.isfinite(report["residual_norms"] + [report["fit_slope"]])))
        ok = finite and _parses_back(text, "fit_slope", report["fit_slope"])
        if p == 3:
            ok = ok and 1.4 <= report["fit_slope"] <= 1.6 \
                and report["matched_convention"] == "unordered"
        return ok

    return Op(f"ito-p{p}c{cells}", run, check)


def ito_square(rng, cells: int) -> Op:
    """The exact p=2 one-step identity: residual equals the squared increment."""
    grid, q = qsde.TimeGrid(1.0, cells), _q(rng)

    def run(tr):
        return tr.call("qsde.ito_step", qsde.ito_step, 2, 0.5, grid, q)

    def check(step):
        delta = qsde.qbm(0.5, 0.5 + grid.dt, grid, q)
        return (step["residual"] - wickalg.multiply(delta, delta, q)).max_abs_coeff() <= 1e-12

    return Op("ito-square", run, check)


def _grid_points(rng, cells: int, count: int) -> list[float]:
    return [int(i) / cells for i in np.sort(rng.integers(0, cells + 1, count))]


def chen(rng, cells: int, inserted: bool, side: str) -> Op:
    grid, q = qsde.TimeGrid(1.0, cells), _q(rng)
    s, u, t = _grid_points(rng, cells, 3)
    w = float(rng.choice((0.0, 0.5)))
    a = (WickElement.from_vector(rng.standard_normal(cells)) if inserted
         else WickElement.one(cells))

    def run(tr):
        r = tr.call("qsde.chen_residual", qsde.chen_residual, s, u, t, a, side, grid, q, w)
        inputs = {"cells": cells, "diag_weight": w, "horizon": 1.0, "q": q,
                  "s": s, "side": side, "t": t, "u": u}
        return r, _emit(tr, "chen", inputs, lambda: {"max_abs_coeff": r.max_abs_coeff()})

    def check(res):
        r, text = res
        return (r.max_abs_coeff() <= 1e-12
                and _parses_back(text, "max_abs_coeff", r.max_abs_coeff()))

    return Op("chen-insert" if inserted else "chen", run, check)


def levy(rng, cells: int) -> Op:
    grid, q = qsde.TimeGrid(1.0, cells), _q(rng)
    s, t = _grid_points(rng, cells, 2)
    if s == t:
        s, t = 0.0, 1.0
    side, w = str(rng.choice((qsde.LEFT, qsde.RIGHT))), float(rng.choice((0.0, 0.5)))
    one = WickElement.one(cells)

    def run(tr):
        el = tr.call("qsde.levy_area", qsde.levy_area, one, s, t, side, grid, q, w)
        inputs = {"cells": cells, "diag_weight": w, "horizon": 1.0, "q": q,
                  "s": s, "side": side, "t": t}
        return el, _emit(tr, "levy", inputs, lambda: {"element": el.to_json()})

    def check(res):
        # With the identity inserted no pairing is admissible: the area is its kernel.
        el, text = res
        kernel = WickElement.from_tensor(qsde.levy_area_tensor(s, t, side, grid, w))
        return (set(el.chaos) <= {2} and (el - kernel).max_abs_coeff() == 0.0
                and _parses_back(text, "element", el.to_json()))

    return Op("levy", run, check)


_MOLLIFIERS = {"quartic": qsde.quartic_bump, "triangle": qsde.triangle_bump}


def bphz(rng, mollifier: str, eps: float) -> Op:
    def run(tr):
        value = tr.call("qsde.bphz_constant", qsde.bphz_constant, _MOLLIFIERS[mollifier], eps)
        inputs = {"epsilon": eps, "mollifier": mollifier}
        return value, _emit(tr, "bphz-constant", inputs,
                            lambda: {"value": value, "deviation_from_half": abs(value - 0.5)})

    def check(res):
        value, text = res
        return abs(value - 0.5) <= 1e-6 and _parses_back(text, "value", value)

    return Op(f"bphz-{mollifier}", run, check)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


# The symbolic route's two halves: products with their norms (criterion 07),
# and the full-pairing and insertion enumerators.
_PRODUCTS = [(product, 2, 3)] * 8 + [(product, 3, 3)] * 8 + [(product, 2, 4)] * 4
_PAIRING_SUMS = ([(counterterm, "quartic2d"), (counterterm, "quartic3d")]
                 + [(pairings, 6, None)] * 2 + [(moment, 8, 3)] * 2 + [(expand, 6, 2)] * 2
                 + [(expand, 7, 2)] + [(pairings, 8, None)] * 2 + [(moment, 10, 3)] * 3
                 + [(expand, 8, 2)] + [(pairings, 10, 3)] * 2 + [(delta_r, 2)] * 2
                 + [(disentangle, 2)] * 2 + [(expand, 9, 2)] * 2
                 + [(pairings, 10, None), (moment, 12, 3)])

# The Chen residuals (with and without an insertion, on both sides), Levy
# areas, p=2 Ito steps and BPHZ constants of rough-path: one row per round,
# taken in turn, so that four rounds hold each of them.
_ROUGH_CHEAP = [
    [(chen, 32, True, "L"), (chen, 32, False, "R"), (levy, 64), (bphz, "quartic", 0.1)],
    [(chen, 32, True, "R"), (chen, 32, False, "L"), (ito_square, 128), (bphz, "triangle", 0.1)],
    [(chen, 32, True, "L"), (chen, 32, False, "R"), (levy, 64), (bphz, "quartic", 0.01)],
    [(chen, 32, True, "R"), (chen, 32, False, "L"), (ito_square, 128), (bphz, "triangle", 0.01)],
]


def _rough_path_round(index: int) -> list[tuple]:
    a, b, c, d = _ROUGH_CHEAP[index % len(_ROUGH_CHEAP)]
    ito3, ito4_48, ito4_64 = (ito, 3, 128), (ito, 4, 48), (ito, 4, 64)
    return [a, *[ito3] * 4, ito4_64, b, *[ito3] * 3, ito4_48, *[ito3] * 3, c, *[ito3] * 3,
            ito4_48, d]


# One round per workload: (builder, *shape) entries.  The shares of the kinds
# in a full round are set so that op_p50_ms and op_p90_ms each fall inside
# the latency band of one kind (or of kinds with equal latency), never on the
# edge between two: the shares are exact because runs end on round boundaries.
# A schedule may also be a function of the round's index.  The tiny rounds
# exist for the self-test.
ROUNDS = {
    # p50: d<=3, chaos-3 products; p90: d=2, chaos-4 products.  The quick CLI
    # paths (`qfock pairings --n 6`, `qfock counterterm`) balance the heavy
    # pairing sums, so that p50 sits at the middle of the product band.
    "symbolic": {
        "full": (_PRODUCTS * 8 + _PAIRING_SUMS + [(pairings, 6, None)] * 20
                 + [(counterterm, family) for family in _COUNTERTERMS] * 10),
        "tiny": [(product, 2, 1), (product, 3, 1), (product, 2, 2), (moment, 4, 2),
                 (expand, 4, 2), (pairings, 4, None), (pairings, 4, 1), (disentangle, 0),
                 (delta_r, 0), (counterterm, "quartic2d")],
    },
    # Both percentiles fall among the d=3 comparisons, whose latency drifts with
    # host load about half as much as that of the more Python-bound d=2 ones.
    "fock-oracle": {
        "full": ([(norm_f0, n, 6) for n in (1, 2, 3)]
                 + [(norm_fq, 2, 3, 7), (free_square, (12, 24))]
                 + [(oracle, 2, 3, 8)] * 3 + [(oracle, 3, 3, 8)] * 16),
        "tiny": [(oracle, 2, 2, 4), (norm_f0, 1, 3), (norm_fq, 2, 1, 3),
                 (free_square, (4, 6))],
    },
    # A round is 4 cheap ops (20%), 13 p=3 Ito reports at 128 cells (65%), 2
    # p=4 reports at 48 cells (10%) and one at 64 cells (5%), each kind's
    # latency well apart from the next: p50 sits 46% of the way up the p=3
    # band and p90 in the middle of the p=4, 48-cell one.  The cheap ops come
    # from _ROUGH_CHEAP in turn and all lie below p50, so which of them a
    # round holds moves neither percentile.
    "rough-path": {
        "full": _rough_path_round,
        "tiny": [(ito, 4, 8), (ito, 3, 32), (ito_square, 8), (chen, 8, True, "L"),
                 (chen, 8, False, "R"), (levy, 8), (bphz, "quartic", 0.1)],
    },
}


def make_round(workload: str, rng, tiny: bool = False, index: int = 0) -> list[Op]:
    """Round ``index`` of ``workload``, in schedule order, with inputs drawn from ``rng``."""
    schedule = ROUNDS[workload]["tiny" if tiny else "full"]
    if callable(schedule):
        schedule = schedule(index)
    return [builder(rng, *shape) for builder, *shape in schedule]
