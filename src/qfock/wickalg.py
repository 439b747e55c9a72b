"""The exact symbolic algebra of Wick expansions.

An algebra element is stored as its (unique) graded family of chaos
coefficients ``{k ↦ F_k}``.  Multiplication sums over cross pairings between
the two leg sets weighted by ``q^crb``; the weight factorises, so the pairings
with k arcs add up to a single contraction of a left and a right tensor, each
built by a recursion over the legs.  Moments follow the
q-weighted pair partition rule, and the graded ℓ¹ norm with constants
``C_q, D_q`` makes the expansions a Banach algebra.  The matrix realisation on
the truncated Fock space (``to_operator``) provides the independent oracle for
all of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinat import perfect_pairing_arrays
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
    return WickElement(d, {k: FockTensor(d, a) for k, a in acc.items() if a.any()})


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


def _left_factor(X: np.ndarray, r: int, q: float) -> np.ndarray:
    """One more arc on the left: ``Σ_{x<r} q^{r-1-x}`` times X with axis x moved to the back.

    X's first r axes are its free legs and the rest its contracted ones, in
    the order in which they meet the right factor's first axes.  Axis x
    passes the ``r-1-x`` free legs after it: each one that stays free adds
    to ``sp``, and each one contracted later meets a later right leg, so
    their arcs cross.  So k steps from F sum ``q^{sp_L(S)+cr}`` over the
    ordered k-subsets S of F's axes.
    """
    m = X.ndim
    if m == 1:
        return X
    axes = list(range(m))
    # C-ordered, so that multiply's reshape to a matrix is a view, not a copy
    out = np.multiply(np.transpose(X, axes[1:] + [0]), q ** (r - 1), order="C")
    for x in range(1, r):
        out += q ** (r - 1 - x) * np.transpose(X, axes[:x] + axes[x + 1:] + [x])
    return out


def _right_factors(G: np.ndarray, kmax: int, q: float) -> list[np.ndarray]:
    """The right factors of k arcs for k = 0..kmax, in one pass over G's axes.

    Entry k sums ``q^{sp_R(T)}`` times G with its axes T moved to the front in
    order, over the k-subsets T of G's axes.  Axis i either stays, or joins
    the j-1 axes already at the front, passing over the ``i-j+1`` free legs
    before it; entries are filled in descending j so that entry j-1 is still
    the one before axis i.  Where the first i+1 axes are all selected the
    entry is G itself.
    """
    R = [G]
    axes = list(range(G.ndim))
    for i in axes:
        for j in range(min(i + 1, kmax), 0, -1):
            if j == i + 1:
                R.append(G)
            else:
                moved = np.transpose(R[j - 1], axes[:j - 1] + [i] + axes[j - 1:i] + axes[i + 1:])
                R[j] = R[j] + q ** (i - j + 1) * moved
    return R


def multiply(A: WickElement, B: WickElement, q: float) -> WickElement:
    """Product of two Wick expansions.

    Bilinear over chaos components.  A degree-m and a degree-n component
    multiply by summing over the cross pairings that join k left legs ``S``
    to k right legs ``T``, each weighted by ``q^{cr+sp}`` and contracting the
    coefficients along its arcs.  The weight factorises (Bożejko–Speicher):
    ``sp`` is the free left legs after each leg of ``S`` plus the free right
    legs before each leg of ``T``, and ``cr`` counts the pairs of crossing
    arcs, the non-inversions of the bijection ``S → T``.  So the k-arc terms
    sum to one contraction of the last k axes of a left factor with the
    first k axes of a right factor.  The left factor for k arcs is the one
    for k-1 after one more q-weighted move of a free axis to the back
    (``_left_factor``), which counts ``sp`` on the left and ``cr``; the right
    factors for every k come from one pass over the axes of the right
    coefficient (``_right_factors``), which counts ``sp`` on the right.  The
    work is polynomial in the chaos degrees.  Deterministic summation order.
    """
    if A.d != B.d:
        raise ValueError("dimension mismatch")
    top = max(A.chaos, default=0)
    d = A.d
    right = {n: _right_factors(G.data, min(n, top), q) for n, G in B.chaos.items()}

    def terms():
        for m in sorted(A.chaos):
            left = [A.chaos[m].data]
            for n in sorted(right):
                R = right[n]
                yield np.multiply.outer(left[0], R[0])
                for k in range(1, min(m, n) + 1):
                    if k == len(left):
                        left.append(_left_factor(left[-1], m - k + 1, q))
                    L, Rk = left[k], R[k]
                    # tensordot's own matrix product, without its bookkeeping
                    yield np.dot(L.reshape(-1, d ** k), Rk.reshape(d ** k, -1)).reshape(
                        L.shape[:m - k] + Rk.shape[k:])

    return sum_chaos(d, terms())


def moment(vectors, q: float) -> float:
    """Vacuum moment of a product of field operators (q-weighted pair rule).

    Each pairing's term is ``q ** cr`` times its arcs' inner products, taken
    arc by arc, and the terms are added one after another from 0.0.
    """
    fs = [np.asarray(f, dtype=float) for f in vectors]
    n = len(fs)
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return 1.0
    gram = np.array([[float(np.dot(a, b)) for b in fs] for a in fs])
    cr, S, T = perfect_pairing_arrays(n)
    term = np.array([q ** c for c in range(int(cr.max()) + 1)], dtype=float)[cr]
    for s, t in zip(S, T):
        term *= gram[s, t]
    # adding 0.0 turns an all -0.0 sum into 0.0, as a sum started at 0.0 does
    return float(np.cumsum(term)[-1] + 0.0)


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
