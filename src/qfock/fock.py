"""Exact finite-dimensional q-Fock space: graded tensors, the q-symmetrizer,
Wick operators (creation, annihilation and the field among them), and exact
operator norms.

Everything acts on the truncated Fock space ``⊕_{k<=N} H^{⊗k}`` over a real
``d``-dimensional one-particle space.  Operators track on which input sectors
they are *exact* (no intermediate result ever leaves the truncation); applying
an operator outside its exact range raises ``TruncationError`` instead of
silently truncating.  An operator is one linear map on graded column batches:
it takes ``{k: (d^k, batch)}`` arrays, one batch width for every sector, to
the ``(d^{k'}, batch)`` arrays of the sectors they reach, with the images of
all input sectors summed.  A dense sector block is that map applied to one
sector's identity batch, built only when asked for and cached, since a block
from sector ``k`` to sector ``k'`` has ``d^{k+k'}`` entries; a composition
chains the two maps, so a graded batch passes each factor once and no block
of either factor is built.  Every operator is a Wick assembly or a
composition of them: all Wick terms of an element act in one pass of a
stacked annihilation per sector, each through its shuffle-weighted hat, which
one pass over the term's axes builds with work polynomial in the degree;
creation, annihilation, the field and ``c·Id`` are Wick operators of chaos 0
or 1.  Sums and multiples are taken on ``restricted_matrix`` arrays.  The one
q-symmetrizer is ``_pq_tail``; the fq norm applies it to the stacked matrix
and caches nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


MAX_TENSOR_ENTRIES = 1 << 24  # 128 MiB of float64: the largest tensor built or parsed
MAX_TENSOR_DEGREE = 64  # numpy arrays have at most 64 axes


class TruncationError(ValueError):
    """An operation would need sectors beyond the truncation cutoff."""


def refuse_large_tensor(d: int, degree: int) -> None:
    """Refuse, before building it, a ``(d,)*degree`` tensor of more than
    ``MAX_TENSOR_DEGREE`` axes or ``MAX_TENSOR_ENTRIES`` entries."""
    if degree > MAX_TENSOR_DEGREE:
        raise ValueError(f"the tensor would have degree {degree}; "
                         f"numpy arrays have at most {MAX_TENSOR_DEGREE} axes")
    if d ** degree > MAX_TENSOR_ENTRIES:
        raise ValueError(f"the tensor would have more than {MAX_TENSOR_ENTRIES} entries")


# ---------------------------------------------------------------------------
# graded tensors and vectors
# ---------------------------------------------------------------------------


def _is_index(x) -> bool:
    """Whether a JSON value is a nonnegative integer."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def is_finite_number(x) -> bool:
    """Whether a JSON value is a number that fits a finite float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


class FockTensor:
    """A degree-k coefficient tensor over the d-dimensional real basis."""

    __slots__ = ("d", "data")

    def __init__(self, d: int, data) -> None:
        self.d = int(d)
        arr = np.asarray(data, dtype=float)
        if arr.ndim > 0 and any(s != self.d for s in arr.shape):
            raise ValueError(f"expected shape ({self.d},)*k, got {arr.shape}")
        self.data = arr

    @property
    def degree(self) -> int:
        return self.data.ndim

    def norm(self) -> float:
        """Euclidean (flat) norm of the coefficient array."""
        return float(np.linalg.norm(self.data.ravel()))

    @staticmethod
    def scalar(d: int, value: float) -> "FockTensor":
        return FockTensor(d, np.asarray(float(value)))

    @staticmethod
    def zeros(d: int, degree: int) -> "FockTensor":
        return FockTensor(d, np.zeros((d,) * degree))

    @staticmethod
    def from_vectors(vectors) -> "FockTensor":
        """Elementary tensor f_1 ⊗ ... ⊗ f_k."""
        vs = [np.asarray(v, dtype=float) for v in vectors]
        d = vs[0].shape[0]
        out = np.asarray(1.0)
        for v in vs:
            if v.shape != (d,):
                raise ValueError("all vectors must share the dimension")
            out = np.multiply.outer(out, v)
        return FockTensor(d, out)

    def __add__(self, other: "FockTensor") -> "FockTensor":
        return FockTensor(self.d, self.data + other.data)

    def scale(self, c: float) -> "FockTensor":
        return FockTensor(self.d, c * self.data)

    def to_json(self) -> dict:
        coeffs = []
        if self.degree == 0:
            if self.data != 0.0:
                coeffs.append({"word": [], "value": float(self.data)})
        else:
            for word in sorted(zip(*np.nonzero(self.data))):
                coeffs.append({"word": [int(i) for i in word],
                               "value": float(self.data[word])})
        return {"d": self.d, "degree": self.degree, "coeffs": coeffs}

    @staticmethod
    def from_json(obj: dict) -> "FockTensor":
        """Read the form ``to_json`` writes; a malformed one raises ValueError.

        Each word must list ``degree`` basis indices in ``0..d-1`` and appear
        once, and each value must be a finite number.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"a tensor must be a JSON object, got {type(obj).__name__}")
        d, degree, coeffs = obj.get("d"), obj.get("degree"), obj.get("coeffs")
        if not _is_index(d) or d < 1:
            raise ValueError(f"tensor 'd' must be a positive integer, got {d!r}")
        if not _is_index(degree) or degree > MAX_TENSOR_DEGREE:
            raise ValueError(f"tensor 'degree' must be a nonnegative integer up to "
                             f"{MAX_TENSOR_DEGREE}, got {degree!r}")
        if not isinstance(coeffs, list) or not all(isinstance(e, dict) for e in coeffs):
            raise ValueError("tensor 'coeffs' must be a list of objects")
        refuse_large_tensor(d, degree)
        t = FockTensor.zeros(d, degree)
        seen = set()
        for entry in coeffs:
            word, value = entry.get("word"), entry.get("value")
            if (not isinstance(word, list) or len(word) != degree
                    or not all(_is_index(i) and i < d for i in word)):
                raise ValueError(f"word {word!r} must list {degree} indices in 0..{d - 1}")
            if tuple(word) in seen:
                raise ValueError(f"word {word} appears twice")
            seen.add(tuple(word))
            if not is_finite_number(value):
                raise ValueError(f"value of word {word} must be a finite number, got {value!r}")
            t.data[tuple(word)] = float(value)
        return t

    def __repr__(self) -> str:
        return f"FockTensor(d={self.d}, degree={self.degree})"


class FockVector:
    """An element of the graded Fock space with finitely many sectors."""

    __slots__ = ("d", "sectors")

    def __init__(self, d: int, sectors: dict[int, np.ndarray] | None = None) -> None:
        self.d = int(d)
        self.sectors: dict[int, np.ndarray] = {}
        for k, arr in (sectors or {}).items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (self.d,) * k:
                raise ValueError(f"sector {k} has shape {arr.shape}")
            self.sectors[int(k)] = arr

    @staticmethod
    def vacuum(d: int) -> "FockVector":
        return FockVector(d, {0: np.asarray(1.0)})

    def sector(self, k: int) -> np.ndarray:
        return self.sectors.get(k, np.zeros((self.d,) * k))


# ---------------------------------------------------------------------------
# the q-symmetrizer
# ---------------------------------------------------------------------------


def _pq_tail(X: np.ndarray, d: int, k: int, q: float) -> np.ndarray:
    """q-symmetrize each row of the ``(batch, d^k)`` array X, a degree-k tensor.

    Uses the coset recursion: with the last j-1 axes symmetrized, the last j
    are symmetrized by adding the ``q^i``-weighted moves of axis ``-j`` to
    ``i`` places further back.  Cost is polynomial in the degree rather than
    factorial.  Uses 5-axis views only, so no degree meets numpy's limit on
    the number of axes.
    """
    out = np.array(X, dtype=float)
    b = out.shape[0]
    for j in range(2, k + 1):
        acc = out.copy()
        for i in range(1, j):
            moved = out.reshape(b, d ** (k - j), d, d ** i, d ** (j - 1 - i))
            acc.reshape(b, d ** (k - j), d ** i, d, d ** (j - 1 - i))[...] += (
                q ** i * moved.transpose(0, 1, 3, 2, 4))
        out = acc
    return out


def pq_apply(tensor: np.ndarray, q: float) -> np.ndarray:
    """Apply the q-symmetrizer ``Σ_σ q^{inv(σ)} U_σ`` to a degree-n tensor."""
    T = np.asarray(tensor, dtype=float)
    d = T.shape[0] if T.ndim else 1
    return _pq_tail(T.reshape(1, -1), d, T.ndim, q).reshape(T.shape)


def pq_matrix(d: int, n: int, q: float) -> np.ndarray:
    """The q-symmetrizer on ``H^{⊗n}`` as a dense ``d^n × d^n`` matrix."""
    return _pq_tail(np.eye(d ** n), d, n, q).T


def q_inner(left: FockTensor, right: FockTensor, q: float) -> float:
    """The q-twisted inner product ``<F, P_q G>``; zero across degrees."""
    if left.d != right.d:
        raise ValueError("dimension mismatch")
    if left.degree != right.degree:
        return 0.0
    return float(np.vdot(left.data, pq_apply(right.data, q)))


# ---------------------------------------------------------------------------
# truncated operators
# ---------------------------------------------------------------------------


@dataclass
class TruncatedOperator:
    """A linear map between particle sectors of the truncated Fock space.

    ``out_map[k]`` lists the sectors that input sector ``k`` can reach; input
    sectors absent from ``out_map`` are not exact.  The operator is the map
    ``_act(X)`` on graded column batches: ``X = {k_in: (d^{k_in}, batch)}``,
    one batch width for every sector, goes to ``{k_out: (d^{k_out}, batch)}``,
    the images of all input sectors summed.  A block, the dense matrices of
    shape ``(d^{k_out}, d^{k_in})`` by output sector, is that map applied to
    the identity batch of sector ``k_in``, built on first use and cached.
    """

    d: int
    cutoff: int
    out_map: dict[int, tuple[int, ...]]
    _act: object  # callable: {k_in: (d^k_in, batch) array} -> dict[k_out, ndarray]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def exact_sectors(self) -> set[int]:
        return set(self.out_map)

    def _require_exact(self, sectors) -> None:
        for k in sectors:
            if k not in self.out_map:
                raise TruncationError(
                    f"operator is not exact on input sector {k} (cutoff {self.cutoff})")

    def act(self, X: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """The image of the graded batch ``X = {k_in: (d^{k_in}, batch)}``, by sector."""
        self._require_exact(X)
        return self._act(X)

    def block(self, k_in: int) -> dict[int, np.ndarray]:
        if k_in not in self._cache:
            self._cache[k_in] = self.act({k_in: np.eye(self.d ** k_in)})
        return self._cache[k_in]

    def apply(self, vec: FockVector) -> FockVector:
        if vec.d != self.d:
            raise ValueError("dimension mismatch")
        out = self.act({k: arr.reshape(-1, 1) for k, arr in vec.sectors.items() if np.any(arr)})
        return FockVector(self.d, {k: col.reshape((self.d,) * k) for k, col in out.items()})

    def compose(self, inner: "TruncatedOperator") -> "TruncatedOperator":
        """The product self∘inner (inner applied first)."""
        if self.d != inner.d:
            raise ValueError("dimension mismatch")
        outer = self
        out_map: dict[int, tuple[int, ...]] = {}
        for k, mids in inner.out_map.items():
            if all(m in outer.out_map for m in mids):
                outs: set[int] = set()
                for m in mids:
                    outs.update(outer.out_map[m])
                out_map[k] = tuple(sorted(outs))
        return TruncatedOperator(self.d, min(self.cutoff, inner.cutoff), out_map,
                                 lambda X: outer.act(inner.act(X)))

    # -- dense restrictions ---------------------------------------------------

    def out_sectors(self, sectors_in) -> list[int]:
        """The sorted sectors that ``sectors_in`` reach, or ``[0]`` if they reach none."""
        sectors_in = list(sectors_in)
        self._require_exact(sectors_in)
        return sorted({k_out for k in sectors_in for k_out in self.out_map[k]}) or [0]

    def restricted_matrix(self, sectors_in, sectors_out=None) -> np.ndarray:
        """Stacked dense matrix over the given input (and output) sectors."""
        sectors_in = sorted(sectors_in)
        if not sectors_in:
            raise ValueError("empty sector range")
        sectors_out = self.out_sectors(sectors_in) if sectors_out is None else sorted(sectors_out)
        col_off = np.cumsum([0] + [self.d ** k for k in sectors_in])
        row_off = np.cumsum([0] + [self.d ** k for k in sectors_out])
        out_pos = {k: i for i, k in enumerate(sectors_out)}
        mat = np.zeros((row_off[-1], col_off[-1]))
        for ci, k in enumerate(sectors_in):
            for k_out, blk in self.block(k).items():
                if k_out not in out_pos:
                    continue
                ri = out_pos[k_out]
                mat[row_off[ri]:row_off[ri + 1], col_off[ci]:col_off[ci + 1]] = blk
        return mat


# ---------------------------------------------------------------------------
# operator constructors
# ---------------------------------------------------------------------------


def _shuffle_weighted_tensor(F: np.ndarray, a: int, q: float) -> np.ndarray:
    """Sum of axis-splits of F into ``a`` creation and ``n-a`` annihilation slots.

    Each split (S, T) with S the sorted creation axes contributes
    ``q^{#{(s,t) in S×T : s > t}} · F_{axes reordered to S then T}``.  In one pass
    over the axes, axis i stays or joins the j-1 axes of S in front, past i-j+1 of T.
    """
    acc = [np.array(F)] + [None] * a  # acc[j]: the splits so far with j in S; no hat aliases F
    for i in range(F.ndim):
        for j in range(min(i + 1, a), max(0, a - F.ndim + i), -1):  # j can still reach a
            perm = (*range(j - 1), i, *range(j - 1, i), *range(i + 1, F.ndim))
            moved = acc[j - 1] if j > i else q ** (i - j + 1) * np.transpose(acc[j - 1], perm)
            acc[j] = moved if acc[j] is None else acc[j] + moved
    return acc[a]


def _annihilate(T: np.ndarray, d: int, r: int, q: float) -> np.ndarray:
    """All basis annihilations at once: ``(d^L, d^r, batch) -> (d^{L+1}, d^{r-1}, batch)``.

    Sums ``q^p`` times T with axis p of its degree-r tensor moved to the front
    of the L letters, as the new letter acts after them.  Uses 5-axis views
    only, so no degree meets numpy's limit on the number of axes.
    """
    L, _, batch = T.shape
    out = np.zeros((d, L, d ** (r - 1), batch))
    for p in range(r if q else 1):
        shape = (d ** p, d ** (r - p - 1), batch)
        view = T.reshape(L, shape[0], d, *shape[1:]).transpose(2, 0, 1, 3, 4)
        out.reshape(d, L, *shape)[...] += q ** p * view
    return out.reshape(d * L, d ** (r - 1), batch)


def _wick_assembly(d: int, terms, q: float, cutoff: int) -> TruncatedOperator:
    """One operator, with one action, for the Wick terms ``(F, ell)`` summed.

    A term makes ``k = deg F - ell`` creations after ``ell`` annihilations;
    input sector m is exact if every term with ``ell <= m`` stays within the
    cutoff.  For each sector m of the batch X the action applies
    ``_annihilate`` to the sector-m columns and, after step ``ell``, adds
    ``hat @ T_ell`` to sector ``m + k - ell``, with ``hat`` the ``d^k × d^ell``
    shuffle-weighted tensor (``_shuffle_weighted_tensor``), built once if
    used.  On ``X = {m: eye(d^m)}`` these are the sector's blocks.
    """
    out_map: dict[int, tuple[int, ...]] = {}
    for m in range(cutoff + 1):
        outs = {m + F.ndim - 2 * ell for F, ell in terms if ell <= m}
        if all(k_out <= cutoff for k_out in outs):
            out_map[m] = tuple(sorted(outs))
    by_ell: dict[int, list] = {}
    for F, ell in terms:
        if ell <= max(out_map, default=-1):
            hat = _shuffle_weighted_tensor(F, F.ndim - ell, q)
            by_ell.setdefault(ell, []).append((F.ndim - ell, hat.reshape(-1, d ** ell)))

    def act(X):
        out = dict.fromkeys(m + F.ndim - 2 * ell for m in X for F, ell in terms if ell <= m)
        for m, Xm in X.items():
            batch = Xm.shape[1]
            T = Xm.reshape(1, d ** m, batch)
            for ell in range(min(m, max(by_ell, default=0)) + 1):
                T = _annihilate(T, d, m - ell + 1, q) if ell else T
                for k, hat in by_ell.get(ell, ()):
                    blk = (hat @ T.reshape(d ** ell, -1)).reshape(-1, batch)
                    out[m + k - ell] = blk if out[m + k - ell] is None else out[m + k - ell] + blk
        return out

    return TruncatedOperator(d, cutoff, out_map, act)


def wick_operator(d: int, tensors: dict, q: float, cutoff: int) -> TruncatedOperator:
    """``Σ_n W(F_n)`` for chaos coefficients ``{n: F_n}``, as one operator.

    Chaos n gives the Wick blocks ``ell = 0..n``; chaos 0 is a scalar times
    the identity.  Each input sector is assembled in one annihilation pass.
    """
    terms = [(np.asarray(F, dtype=float), ell)
             for n, F in sorted(tensors.items()) for ell in range(n + 1)]
    return _wick_assembly(d, terms, q, cutoff)


def wick_block_matrix(k: int, ell: int, F: FockTensor, q: float, cutoff: int) -> TruncatedOperator:
    """The Wick block creating ``k`` and annihilating ``ell`` particles from F.

    The shuffle-weighted sum of words ``α†(·)…α†(·) α_q(·)…α_q(·)`` fed by the
    slots of the degree-(k+ell) tensor F, built as the one term of ``wick_operator``.
    Kills every sector below ``ell``; elsewhere shifts the degree by ``k - ell``.
    """
    if F.degree != k + ell:
        raise ValueError(f"tensor degree {F.degree} != k+ell = {k + ell}")
    return _wick_assembly(F.d, [(F.data, ell)], q, cutoff)


def creation(f, cutoff: int) -> TruncatedOperator:
    """The Wick block ``a†(f)``: prepend f, sector k -> k+1; exact below the cutoff."""
    f = np.asarray(f, dtype=float)
    return _wick_assembly(len(f), [(f, 0)], 0.0, cutoff)


def annihilation(f, q: float, cutoff: int) -> TruncatedOperator:
    """The Wick block ``a_q(f)``: contract f at slot i with weight ``q^{i-1}``; kills Ω."""
    f = np.asarray(f, dtype=float)
    return _wick_assembly(len(f), [(f, 1)], q, cutoff)


def field_operator(f, q: float, cutoff: int) -> TruncatedOperator:
    """The self-adjoint noise field ``W(f) = a†(f) + a_q(f)``, the chaos-1 Wick operator."""
    return wick_operator(len(f), {1: f}, q, cutoff)


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def operator_norm(op: TruncatedOperator, sectors, metric: str = "f0",
                  q: float | None = None) -> float:
    """Largest singular value of the operator restricted to ``sectors``.

    Computed exactly from the dense stacked sector blocks M: with
    ``metric="f0"`` by the SVD of M.  With ``metric="fq"`` the singular value
    is taken in the q-twisted geometry ``<·, P_q ·>``, which requires |q| < 1:
    it is the square root of the largest eigenvalue of
    ``L^{-1} · M^T (P_q M) · L^{-T}``, where ``_pq_tail`` forms ``P_q M`` on
    each output sector's rows and L is block-diagonal, the Cholesky factor of
    each input sector's P_q.  As ``P_q = L L^T`` there, that matrix is similar
    to ``A^T A`` for ``A = P_q^{1/2} M P_q^{-1/2}``.  Nothing is cached.
    """
    sectors = sorted(sectors)
    if not sectors:
        raise ValueError("empty sector range")
    sectors_out = op.out_sectors(sectors)
    mat = op.restricted_matrix(sectors, sectors_out)
    if metric == "f0":
        return float(np.linalg.norm(mat, 2))
    if metric != "fq":
        raise ValueError(f"unknown metric {metric!r}")
    if q is None:
        raise ValueError("metric='fq' requires q")
    if not -1.0 < q < 1.0:
        raise ValueError("q-metric norm requires |q| < 1")
    cols = np.cumsum([0] + [op.d ** k for k in sectors])
    rows = np.cumsum([0] + [op.d ** k for k in sectors_out])
    L = np.zeros((cols[-1], cols[-1]))
    try:
        for i, k in enumerate(sectors):
            L[cols[i]:cols[i + 1], cols[i]:cols[i + 1]] = np.linalg.cholesky(pq_matrix(op.d, k, q))
    except np.linalg.LinAlgError:
        raise ValueError("metric matrix is not positive definite") from None
    pq_mat_t = np.hstack([_pq_tail(mat[rows[i]:rows[i + 1]].T, op.d, k, q)
                          for i, k in enumerate(sectors_out)])  # (P_q M)^T
    G = np.linalg.solve(L, pq_mat_t @ mat)
    return float(np.sqrt(max(np.linalg.eigvalsh(np.linalg.solve(L, G.T))[-1], 0.0)))
