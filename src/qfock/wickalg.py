"""The exact symbolic algebra of Wick expansions.

An algebra element is stored as its (unique) graded family of chaos
coefficients ``{k ↦ F_k}``.  Multiplication sums over cross pairings between
the two leg sets weighted by ``q^crb``; the weight factorises, so the pairings
with k arcs add up to a single contraction of a left and a right tensor, the
left one q-symmetrized over its k contracted legs.  Moments follow the
q-weighted pair partition rule, and the graded ℓ¹ norm with constants
``C_q, D_q`` makes the expansions a Banach algebra.  The matrix realisation on
the truncated Fock space (``to_operator``) provides the independent oracle for
all of it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinat import pairing_table
from .fock import FockTensor, TruncatedOperator, TruncationError, wick_operator


@dataclass(frozen=True)
class NormConstants:
    """The constants of the graded norm at a fixed q in (-1, 1).

    ``D = 1/(1-|q|)``; ``C`` is the infinite product ``∏ (1-|q|^n)^{-1}``
    truncated once the tail factor deviates from 1 by less than 1e-15.
    """

    q: float
    D: float
    C: float


@lru_cache(maxsize=64)
def norm_constants(q: float) -> NormConstants:
    """The constants at q, memoised for the last 64 values of q asked for.

    Raises ValueError where ``C`` overflows a float, from about ``|q| > 0.9977``.
    """
    if not -1.0 < q < 1.0:
        raise ValueError("norm constants require |q| < 1")
    a = abs(q)
    D = 1.0 / (1.0 - a)
    C = 1.0
    n = 1
    while True:
        factor = 1.0 / (1.0 - a ** n)
        C *= factor
        if C == math.inf:
            raise ValueError(f"norm constant C overflows a float at q = {q}")
        if abs(1.0 - factor) < 1e-15:
            break
        n += 1
    return NormConstants(q, D, C)


class WickElement:
    """A finite graded family ``{k ↦ F_k}`` of chaos coefficients."""

    __slots__ = ("d", "chaos")

    def __init__(self, d: int, chaos: dict[int, FockTensor] | None = None) -> None:
        self.d = int(d)
        self.chaos: dict[int, FockTensor] = {}
        for k, F in (chaos or {}).items():
            if F.d != self.d or F.degree != k:
                raise ValueError(f"chaos slot {k} holds a degree-{F.degree}, d={F.d} tensor")
            self.chaos[int(k)] = F

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def one(d: int, scalar: float = 1.0) -> "WickElement":
        return WickElement(d, {0: FockTensor.scalar(d, scalar)})

    @staticmethod
    def zero(d: int) -> "WickElement":
        return WickElement(d, {})

    @staticmethod
    def from_vector(f) -> "WickElement":
        F = FockTensor.from_vectors([f])
        return WickElement(F.d, {1: F})

    @staticmethod
    def from_tensor(F: FockTensor) -> "WickElement":
        return WickElement(F.d, {F.degree: F})

    # -- structure --------------------------------------------------------------

    def coeff(self, k: int) -> FockTensor:
        return self.chaos.get(k, FockTensor.zeros(self.d, k))

    def max_degree(self) -> int:
        return max(self.chaos, default=0)

    def support(self) -> tuple[int, ...]:
        """The degrees with a nonzero (or NaN) coefficient: those ``trim`` keeps."""
        return tuple(sorted(k for k, F in self.chaos.items() if F.data.any()))

    def trim(self) -> "WickElement":
        """Drop the degrees whose coefficients are all zero (a NaN is kept)."""
        return WickElement(self.d, {k: F for k, F in self.chaos.items() if F.data.any()})

    def chaos_part(self, degrees) -> "WickElement":
        keep = set(degrees)
        return WickElement(self.d, {k: F for k, F in self.chaos.items() if k in keep})

    def max_abs_coeff(self) -> float:
        """The largest coefficient in size; NaN if any coefficient is NaN."""
        return float(np.max([np.max(np.abs(F.data), initial=0.0)
                             for F in self.chaos.values()], initial=0.0))

    # -- linear algebra -----------------------------------------------------------

    def __add__(self, other: "WickElement") -> "WickElement":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        out = dict(self.chaos)
        for k, F in other.chaos.items():
            out[k] = out[k] + F if k in out else F
        return WickElement(self.d, out)

    def __sub__(self, other: "WickElement") -> "WickElement":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "WickElement":
        return WickElement(self.d, {k: F.scale(c) for k, F in self.chaos.items()})

    def allclose(self, other: "WickElement", tol: float = 1e-10) -> bool:
        return (self - other).max_abs_coeff() <= tol

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"d": self.d,
                "chaos": {str(k): self.chaos[k].to_json() for k in sorted(self.chaos)}}

    @staticmethod
    def from_json(obj: dict) -> "WickElement":
        if not (isinstance(obj, dict) and type(obj.get("d")) is int and obj["d"] >= 1
                and isinstance(obj.get("chaos"), dict)):
            raise ValueError("an element must be a JSON object with a positive integer 'd' "
                             "and a 'chaos' object")
        chaos = {int(k): FockTensor.from_json(v) for k, v in obj["chaos"].items()}
        return WickElement(obj["d"], chaos)

    def __repr__(self) -> str:
        return f"WickElement(d={self.d}, support={self.support()})"


# ---------------------------------------------------------------------------
# products, moments, maps
# ---------------------------------------------------------------------------


def wick_product_vectors(fs, q: float) -> WickElement:
    """The pure chaos element with coefficient ``f_1 ⊗ ... ⊗ f_n``.

    By uniqueness of the Wick expansion this *is* the n-fold Wick product of
    the given vectors, at every q; ``q`` is not read.
    """
    fs = [np.asarray(f, dtype=float) for f in fs]
    if not fs:
        raise ValueError("need at least one vector (use WickElement.one for scalars)")
    return WickElement.from_tensor(FockTensor.from_vectors(fs))


def sum_chaos(d: int, terms) -> WickElement:
    """Sum chaos coefficient arrays, with one dense accumulator per degree.

    Terms are added in the order given, and all-zero degrees are dropped.
    """
    acc: dict[int, np.ndarray] = {}
    for term in terms:
        k = np.ndim(term)
        acc[k] = acc[k] + term if k in acc else term
    return WickElement(d, {k: FockTensor(d, a) for k, a in acc.items()}).trim()


def expand_field_product(fs, q: float) -> WickElement:
    """Wick expansion of the plain product of field operators.

    The left fold of ``multiply`` over the chaos-1 elements of the vectors;
    a zero vector gives the empty element.
    """
    if len(fs) == 0:
        raise ValueError("empty product")
    out = WickElement.from_vector(fs[0])
    for f in fs[1:]:
        out = multiply(out, WickElement.from_vector(f), q)
    return out.trim()


def _sum_moved(X: np.ndarray, moves) -> np.ndarray:
    """``Σ w · transpose(X, axes)`` over the ``(w, axes)`` pairs given.

    The sum is C-ordered, so ``tensordot`` reads it without a copy.
    """
    out = None
    for w, axes in moves:
        term = np.transpose(X, axes)
        if out is None:
            out = np.multiply(term, w, order="C")
        else:
            out += w * term
    return out


def _left_hat(F: np.ndarray, k: int, q: float) -> np.ndarray:
    """The left factor of the k-arc term of a product.

    Sums ``q^{sp_L(S)}`` times F with its axes ``S`` moved to the back in
    reverse order, over the k-subsets ``S`` of F's axes, and q-symmetrizes the
    last k axes of the sum.  ``sp_L(S)`` counts the pairs of a leg in ``S``
    and a later leg outside ``S``.
    """
    m = F.ndim
    if k == m == 1:
        return F
    moves = []
    for S in itertools.combinations(range(m), k):
        rest = [x for x in range(m) if x not in S]
        moves.append((q ** sum(1 for s in S for x in rest if x > s),
                      rest + list(reversed(S))))
    return _q_symmetrize_tail(_sum_moved(F, moves), k, q)


def _right_hat(G: np.ndarray, k: int, q: float) -> np.ndarray:
    """The right factor of the k-arc term of a product.

    Sums ``q^{sp_R(T)}`` times G with its axes ``T`` moved to the front in
    order, over the k-subsets ``T`` of G's axes.  ``sp_R(T)`` counts the pairs
    of a leg in ``T`` and an earlier leg outside ``T``.
    """
    n = G.ndim
    if k == n:
        return G
    moves = []
    for T in itertools.combinations(range(n), k):
        rest = [x for x in range(n) if x not in T]
        moves.append((q ** sum(1 for t in T for x in rest if x < t), list(T) + rest))
    return _sum_moved(G, moves)


def _q_symmetrize_tail(X: np.ndarray, k: int, q: float) -> np.ndarray:
    """Apply ``P_q = Σ_σ q^{inv(σ)} U_σ`` to the last k axes of X.

    Coset recursion: with ``P_q`` already applied to the last j-1 axes, the
    last j are symmetrized by adding the ``q^i``-weighted moves of axis
    ``-j`` to ``i`` places further back.
    """
    m = X.ndim
    for j in range(2, k + 1):
        first = m - j
        acc = X.copy()
        for i in range(1, j):
            acc += q ** i * np.moveaxis(X, first, first + i)
        X = acc
    return X


def multiply(A: WickElement, B: WickElement, q: float) -> WickElement:
    """Product of two Wick expansions.

    Bilinear over chaos components.  A degree-m and a degree-n component
    multiply by summing over the cross pairings that join k left legs ``S``
    to k right legs ``T``, each weighted by ``q^{cr+sp}`` and contracting the
    coefficients along its arcs.  The weight factorises: ``cr`` is the number
    of non-inversions of the bijection ``S → T``, and ``sp`` is
    ``sp_L(S) + sp_R(T)``, the free left legs after each leg of ``S`` plus the
    free right legs before each leg of ``T``.  So the k-arc terms sum to one
    contraction of the last k axes of ``_left_hat`` with the first k axes of
    ``_right_hat``; the reversal of ``S`` turns non-inversions into the
    inversions that the q-symmetrizer ``P_q`` (Bożejko–Speicher) counts.
    Each hat is built once per call.  Deterministic summation order.
    """
    if A.d != B.d:
        raise ValueError("dimension mismatch")
    left: dict[tuple[int, int], np.ndarray] = {}
    right: dict[tuple[int, int], np.ndarray] = {}

    def terms():
        for m in sorted(A.chaos):
            F = A.chaos[m].data
            for n in sorted(B.chaos):
                G = B.chaos[n].data
                yield np.multiply.outer(F, G)
                for k in range(1, min(m, n) + 1):
                    if (m, k) not in left:
                        left[m, k] = _left_hat(F, k, q)
                    if (n, k) not in right:
                        right[n, k] = _right_hat(G, k, q)
                    yield np.tensordot(left[m, k], right[n, k], k)

    return sum_chaos(A.d, terms())


def moment(vectors, q: float) -> float:
    """Vacuum moment of a product of field operators (q-weighted pair rule)."""
    fs = [np.asarray(f, dtype=float) for f in vectors]
    n = len(fs)
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return 1.0
    gram = np.array([[float(np.dot(a, b)) for b in fs] for a in fs])
    total = 0.0
    for pairs, cr, _ in pairing_table(tuple(range(n)), (), n // 2):
        term = q ** cr
        for s, t in pairs:
            term *= gram[s, t]
        total += term
    return total


def vacuum_expectation(A: WickElement) -> float:
    """The chaos-0 coefficient; every higher chaos has zero vacuum mean."""
    if 0 in A.chaos:
        return float(A.chaos[0].data)
    return 0.0


def delta_q(A: WickElement, q: float) -> WickElement:
    """Scale the chaos-k coefficient by ``q^k`` (with ``0^0 = 1``)."""
    return WickElement(A.d, {k: F.scale(q ** k) for k, F in A.chaos.items()})


def triple_norm(A: WickElement, q: float) -> float:
    """The graded ℓ¹ algebra norm ``Σ_k (k+1) C^{3/2} D^k ||F_k||``.

    Raises ValueError where the sum does not fit a float.
    """
    if not -1.0 < q < 1.0:
        raise ValueError("norm undefined at q = ±1")
    nc = norm_constants(q)
    try:
        total = sum((k + 1) * nc.C ** 1.5 * nc.D ** k * F.norm()
                    for k, F in sorted(A.chaos.items()))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"the triple norm at q = {q} does not fit a float")
    return total


def to_operator(A: WickElement, q: float, cutoff: int) -> TruncatedOperator:
    """Matrix realisation on the truncated Fock space, by ``fock.wick_operator``.

    Every Wick block of every chaos comes from one assembly pass per input
    sector.  Exactness on the vacuum requires ``cutoff >= max chaos degree``;
    applied to the vacuum, the operator reproduces the chaos coefficients
    exactly.
    """
    if A.max_degree() > cutoff:
        raise TruncationError(
            f"cutoff {cutoff} too small for chaos degree {A.max_degree()}")
    return wick_operator(A.d, {n: F.data for n, F in A.chaos.items()}, q, cutoff)
