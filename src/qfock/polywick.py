"""Wick products with operator insertions and renormalisation counterterms.

A pattern of LEG and INSERT slots describes a product of noise legs with
bounded operators placed between them.  The insertion product expands every
inserted operator over its chaos components, splices those legs into the row,
and sums over the admissible cross pairings with weight ``q^crb`` evaluated in
the full spliced row (the legs removed by a prior partial contraction
still occupy their positions and contribute to the weight).

The counterterm calculus at the end assigns to a fully paired leg
configuration the monomial ``q^cr · Δ^sp`` where ``sp`` counts insertion slots
strictly inside arcs, and sums such monomials into polynomials in the
chaos-scaling map Δ.
"""
from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from .combinat import IndexSet, Pairing, contraction_stats, enumerate_pairings, pairing_table
from .fock import FockTensor
from .wickalg import WickElement, delta_q, multiply, sum_chaos

LEG = "leg"
INSERT = "insert"


class InsertionPattern:
    """An ordered row of LEG and INSERT slots (1-based slot labels)."""

    __slots__ = ("slots",)

    def __init__(self, slots) -> None:
        slots = tuple(slots)
        if not slots:
            raise ValueError("pattern needs at least one slot")
        if any(s not in (LEG, INSERT) for s in slots):
            raise ValueError("slots must be 'leg' or 'insert'")
        self.slots = slots

    @staticmethod
    def from_string(text: str) -> "InsertionPattern":
        """Build from a compact string, e.g. ``"LIL"`` for leg-insert-leg."""
        table = {"l": LEG, "i": INSERT}
        return InsertionPattern(tuple(table[c] for c in text.lower()))

    @property
    def leg_slots(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, s in enumerate(self.slots) if s == LEG)

    @property
    def n_inserts(self) -> int:
        return self.slots.count(INSERT)

    def leg_context(self) -> IndexSet:
        return IndexSet(self.leg_slots)

    def to_json(self) -> dict:
        return {"slots": [{"type": s} for s in self.slots]}

    @staticmethod
    def from_json(obj: dict) -> "InsertionPattern":
        """Read the form ``to_json`` writes; a malformed one raises ValueError."""
        slots = obj.get("slots") if isinstance(obj, dict) else None
        if not isinstance(slots, list) or not all(isinstance(e, dict) for e in slots):
            raise ValueError("a pattern must be an object whose 'slots' is a list of objects")
        return InsertionPattern(tuple(e.get("type") for e in slots))

    def __repr__(self) -> str:
        return "InsertionPattern(%s)" % "".join("L" if s == LEG else "I" for s in self.slots)


# ---------------------------------------------------------------------------
# the insertion product
# ---------------------------------------------------------------------------


def restricted_wick(pattern: InsertionPattern, pi: Pairing, F: FockTensor,
                    Gs, q: float) -> WickElement:
    """Insertion product of F's legs with one chaos tensor per INSERT slot.

    ``pi`` partially contracts the pattern's legs; ``F`` carries the remaining
    legs (in slot order) and each ``Gs[j]`` the legs spliced in at insert slot
    j.  Sums over pairings that join remaining legs to inserted legs or legs
    of distinct inserts, weighting each by ``q^crb`` of the union with ``pi``
    over the full row.
    """
    Gs = list(Gs)
    if len(Gs) != pattern.n_inserts:
        raise ValueError(f"expected {pattern.n_inserts} insert tensors, got {len(Gs)}")
    if pi.context != pattern.leg_context():
        raise ValueError("pairing context must be the pattern's legs")
    d = F.d
    free_legs = pi.free()
    if F.degree != len(free_legs):
        raise ValueError(f"tensor degree {F.degree} != {len(free_legs)} remaining legs")

    # Lay out the spliced row: one row per leg slot and one per axis of
    # each inserted tensor.  A row's class is the operand carrying its axis
    # (0 for F, j for the j-th insert), or None for a leg that pi contracts:
    # its fixed arc keeps the engine from pairing it again.
    classes: list[int | None] = []
    row_of_leg: dict[int, int] = {}
    j = 0
    for slot, kind in enumerate(pattern.slots, 1):
        if kind == LEG:
            row_of_leg[slot] = len(classes)
            classes.append(0 if slot in free_legs else None)
        else:
            j += 1
            classes.extend([j] * Gs[j - 1].degree)
    fixed = tuple((row_of_leg[s], row_of_leg[t]) for s, t in pi.pairs)
    table = pairing_table(tuple(classes), fixed)
    operands = [F.data] + [G.data for G in Gs]
    rows = [r for r, c in enumerate(classes) if c is not None]

    def terms():
        # contract: rows paired by sigma share an einsum label
        for sigma, cr, sp in table:
            label = {r: i for i, r in enumerate(rows)}
            for x, y in sigma:
                label[y] = label[x]
            paired = {r for pair in sigma for r in pair}
            args = []
            for op, data in enumerate(operands):
                args.extend([data, [label[r] for r in rows if classes[r] == op]])
            args.append([label[r] for r in rows if r not in paired])
            yield q ** (cr + sp) * np.einsum(*args)

    return sum_chaos(d, terms())


def delta_R(pattern: InsertionPattern, pi: Pairing, F: FockTensor,
            As, q: float) -> WickElement:
    """Renormalised multiplication with operator insertions.

    ``As`` lists the outer left operator, one operator per INSERT slot, and
    the outer right operator (so ``len(As) == inserts + 2``).  Each inner
    operator is expanded over its chaos components, fed through the insertion
    product, and the outer operators multiply the result on both sides.
    """
    As = list(As)
    if len(As) != pattern.n_inserts + 2:
        raise ValueError(
            f"expected {pattern.n_inserts + 2} operators (outer pair + inserts), got {len(As)}")
    d = F.d
    inner = As[1:-1]
    core = WickElement.zero(d)
    supports = [sorted(a.chaos) for a in inner]
    for combo in itertools.product(*supports):
        Gs = [inner[j].chaos[k] for j, k in enumerate(combo)]
        core = core + restricted_wick(pattern, pi, F, Gs, q)
    return multiply(multiply(As[0], core, q), As[-1], q)


def disentangle_check(pattern: InsertionPattern, fs, As, q: float):
    """Both sides of the insertion-product decomposition of a plain product.

    The left side multiplies out ``A_0 ξ(f..) A_1 ξ(f..) ... A_n`` in the
    Wick algebra, a left fold of ``multiply`` over the pattern's slots with
    ``ξ(f)`` for a leg and the next ``A_j`` for an insert; the right side sums
    ``∏<f_s,f_t> · delta_R`` over all pairings of the legs.  Returns
    ``(lhs, rhs)`` for equality assertion.
    """
    fs = [np.asarray(f, dtype=float) for f in fs]
    legs = pattern.leg_slots
    if len(fs) != len(legs):
        raise ValueError("one vector per leg slot required")
    As = list(As)
    if len(As) != pattern.n_inserts + 2:
        raise ValueError("need outer pair plus one operator per insert")
    d = len(fs[0]) if fs else As[0].d
    vec_of = {slot: fs[i] for i, slot in enumerate(legs)}

    vectors, inserts = iter(fs), iter(As[1:-1])
    lhs = As[0]
    for slot in pattern.slots:
        lhs = multiply(lhs, WickElement.from_vector(next(vectors)) if slot == LEG
                       else next(inserts), q)
    lhs = multiply(lhs, As[-1], q)

    rhs = WickElement.zero(d)
    ctx = pattern.leg_context()
    for pi in enumerate_pairings(ctx):
        coeff = 1.0
        for s, t in pi.pairs:
            coeff *= float(np.dot(vec_of[s], vec_of[t]))
        if coeff == 0.0:
            continue
        free = pi.free()
        F = (FockTensor.from_vectors([vec_of[s] for s in free])
             if free else FockTensor.scalar(d, 1.0))
        rhs = rhs + delta_R(pattern, pi, F, As, q).scale(coeff)
    return lhs, rhs.trim()


# ---------------------------------------------------------------------------
# counterterm monomials and polynomials
# ---------------------------------------------------------------------------


def counterterm_monomial(n_legs: int, insert_positions, pi) -> tuple[int, int]:
    """Monomial exponents ``(q_power, delta_power)`` of a full contraction.

    The slot row consists of ``n_legs`` leg positions (the labels appearing
    in ``pi``) plus the insertion positions; only the relative order of the
    labels matters.  ``pi`` must pair every leg.  The q power is the crossing
    number; the Δ power counts (arc, insertion) incidences with the insertion
    strictly inside the arc.
    """
    inserts = sorted(int(p) for p in insert_positions)
    if isinstance(pi, Pairing):
        pairs = pi.pairs
    else:
        pairs = tuple(tuple(sorted(p)) for p in pi)
    legs = sorted({x for pair in pairs for x in pair})
    if len(legs) != n_legs or 2 * len(pairs) != n_legs:
        raise ValueError("incomplete pairing: every leg must be contracted exactly once")
    if set(inserts) & set(legs):
        raise ValueError("insert positions must be disjoint from the legs")
    q_power, delta_power, _ = contraction_stats(Pairing(pairs, IndexSet(sorted(legs + inserts))))
    return q_power, delta_power


class DeltaPolynomial:
    """Integer-coefficient polynomial in q-powers and Δ-powers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None) -> None:
        self.coeffs: dict[tuple[int, int], int] = {}
        for (a, b), c in (dict(coeffs or {})).items():
            if c:
                self.coeffs[(int(a), int(b))] = int(c)

    def __add__(self, other: "DeltaPolynomial") -> "DeltaPolynomial":
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return DeltaPolynomial(out)

    def evaluate(self, q: float, delta: float) -> float:
        return sum(c * q ** a * delta ** b for (a, b), c in self.coeffs.items())

    def apply(self, A: WickElement, q: float) -> WickElement:
        """Evaluate at (q, Δ_q) and act on a Wick expansion."""
        out = WickElement.zero(A.d)
        for (a, b), c in sorted(self.coeffs.items()):
            term = A
            for _ in range(b):
                term = delta_q(term, q)
            out = out + term.scale(c * q ** a)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, DeltaPolynomial) and self.coeffs == other.coeffs

    def to_json(self) -> list:
        return [{"q": a, "delta": b, "count": c}
                for (a, b), c in sorted(self.coeffs.items())]

    def __repr__(self) -> str:
        terms = [f"{c}*q^{a}*D^{b}" for (a, b), c in sorted(self.coeffs.items())]
        return "DeltaPolynomial(%s)" % " + ".join(terms or ["0"])


def counterterm_polynomial(configs) -> DeltaPolynomial:
    """Sum the monomials of a list of ``(n_legs, insert_positions, pairing)``."""
    return DeltaPolynomial(Counter(counterterm_monomial(*config) for config in configs))


def quartic_2d_configs() -> list:
    """Mass-counterterm configurations of the 2d quartic model.

    One vertex with two contracted legs and one spectator slot; the spectator
    sits left, between, or right of the pair.  Summing the monomials gives
    ``2 + Δ``.
    """
    return [
        (2, (3,), ((1, 2),)),
        (2, (2,), ((1, 3),)),
        (2, (1,), ((2, 3),)),
    ]


def quartic_3d_configs() -> list:
    """Second-order mass-counterterm configurations of the 3d quartic model.

    The underlying graph is a two-vertex loop: a group of three adjacent
    slots (two contractible legs plus the spectator, in one of three internal
    orders) coming from the inner vertex, and two single legs from the outer
    vertex.  The group sits before, between, or after the single legs, which
    gives the three leg orderings; in the noncommutative algebra these are
    distinct objects.  For each of the 9 patterns exactly two full pairings
    survive renormalisation: the two bijections joining single legs to group
    legs.  The third pairing (single-single plus group-group) reproduces an
    already-subtracted divergence and is dropped.  Summing all 18 monomials
    gives ``3 + 2q + (4+4q)Δ + (2+3q)Δ²``.
    """
    configs = []
    group_layouts = [
        (1, (1, 2, 3), (4, 5)),   # group first
        (2, (2, 3, 4), (1, 5)),   # group between the single legs
        (3, (3, 4, 5), (1, 2)),   # group last
    ]
    for _, group, singles in group_layouts:
        for spectator in group:
            group_legs = tuple(g for g in group if g != spectator)
            s1, s2 = singles
            g1, g2 = group_legs
            for matching in (((s1, g1), (s2, g2)), ((s1, g2), (s2, g1))):
                pairs = tuple(tuple(sorted(p)) for p in matching)
                configs.append((4, (spectator,), pairs))
    return configs
