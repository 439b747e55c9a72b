"""Pair contractions on totally ordered index sets and their q-weight statistics.

A pairing is a set of disjoint ordered pairs (arcs) inside a finite, totally
ordered label set.  ``contraction_stats`` gives its three integer statistics:

- ``cr``  -- the crossing number: the number of crossing arc pairs,
- ``sp``  -- the separation number: the number of (arc, free label) incidences
  where the free label lies strictly inside the arc,
- ``crb`` -- the intertwining number ``cr + sp``, which is the exponent of q
  attached to a partial contraction in the Wick calculus.

Labels are arbitrary naturals, not necessarily ``1..n``, so that sub-pairings
keep the labels of their parent set.  All values are immutable and all
functions are pure.

One recursion, ``_list_pairings``, lists the arcs of the pairings of
positions ``0..n-1``, and one pass over a pairing's arcs, ``_arc_stats``,
counts its ``cr`` and ``sp``; ``contraction_stats`` reads the same pass.  The
recursion is read in two cached forms: ``pairing_table``, a tuple table of
``(pairs, cr, sp)`` keyed by ``n`` and ``k``, which ``enumerate_pairings``
lists as ``Pairing`` values over a label set and the CLI prints; and
``perfect_pairing_arrays``, read-only ``(cr, S, T)`` arrays of the perfect
pairings keyed by ``n`` alone, which ``wickalg.moment`` sums over.  Each form
keeps at most ``TABLE_CACHE_SIZE`` shapes, and neither depends on q or the
dimension.  The Wick product (``wickalg.multiply``) and the insertion product
(``polywick.restricted_wick``) factorise their sums and read no table.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IndexSet:
    """A finite, totally ordered set of natural-number labels.

    ``_index`` maps each label to its position; it is derived from
    ``elements``, and equality, hashing, repr and pickling ignore it.

    >>> IndexSet.range(3).elements
    (1, 2, 3)
    """

    elements: tuple[int, ...]
    _index: dict[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        elems = tuple(int(x) for x in self.elements)
        object.__setattr__(self, "elements", elems)
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError("labels must be strictly increasing")
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(elems)})

    def __reduce__(self):
        return IndexSet, (self.elements,)

    @staticmethod
    def range(n: int) -> "IndexSet":
        return IndexSet(tuple(range(1, n + 1)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, label: int) -> bool:
        return label in self._index


@dataclass(frozen=True, slots=True)
class Pairing:
    """Disjoint ordered pairs ``(s, t)`` with ``s < t`` inside a context set.

    The pair list is kept canonically sorted by first element, so two pairings
    are equal iff their canonical forms are equal.

    >>> p = Pairing(((2, 5), (1, 4)), IndexSet.range(6))
    >>> p.pairs
    ((1, 4), (2, 5))
    >>> p.free()
    (3, 6)
    """

    pairs: tuple[tuple[int, int], ...]
    context: IndexSet

    def __post_init__(self):
        pairs = tuple(sorted((int(s), int(t)) for s, t in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        seen: set[int] = set()
        for s, t in pairs:
            if s >= t:
                raise ValueError(f"pair ({s}, {t}) must have s < t")
            if s not in self.context or t not in self.context:
                raise ValueError(f"pair ({s}, {t}) not inside the context")
            if s in seen or t in seen:
                raise ValueError("pairs must be pairwise disjoint")
            seen.update((s, t))

    @staticmethod
    def empty(context: IndexSet) -> "Pairing":
        return Pairing((), context)

    def covered(self) -> frozenset[int]:
        return frozenset(x for pair in self.pairs for x in pair)

    def free(self) -> tuple[int, ...]:
        """Context labels not covered by any pair, in increasing order."""
        cov = self.covered()
        return tuple(x for x in self.context if x not in cov)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class CosetRep:
    """A minimum-inversion representative of a two-block permutation coset.

    ``permutation`` is in one-line notation over ``1..n``; ``inversions`` is
    the number of pairs ``i < j`` with ``perm[j] < perm[i]``.
    """

    permutation: tuple[int, ...]
    inversions: int


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def _arc_stats(pairs, index) -> tuple[int, int]:
    """``(cr, sp)`` of arcs sorted by first label, with ``index`` mapping each
    label to its position.

    The labels strictly inside an arc are free, or ends of arcs nested in
    it or crossing it: a nested arc has both ends inside, and of two
    crossing arcs each has one end inside the other.  So ``sp`` is the
    number of labels inside the arcs less twice the nested and the crossing
    pairs, which one pass over the arcs counts.
    """
    inside = cr = nested = 0
    for i, (s, t) in enumerate(pairs):
        inside += index[t] - index[s] - 1
        for a, b in pairs[i + 1:]:
            if a > t:
                break
            if b < t:
                nested += 1
            else:
                cr += 1
    return cr, inside - 2 * (nested + cr)


def contraction_stats(pairing: Pairing) -> tuple[int, int, int]:
    """Return ``(cr, sp, crb)`` for a pairing, as the module docstring defines them.

    >>> contraction_stats(Pairing(((1, 4), (2, 5)), IndexSet.range(6)))
    (1, 2, 3)
    """
    cr, sp = _arc_stats(pairing.pairs, pairing.context._index)
    return cr, sp, cr + sp


def mirror_double(pairing: Pairing) -> Pairing:
    """Duplicate a pairing with its mirror image and close up the free slots.

    The context ``x_1 < ... < x_n`` is doubled to positions ``1..2n``; each
    arc ``(s, t)`` is kept and mirrored, and every free slot is connected to
    its opposite.  The doubling identity ``crb(p) == cr(mirror_double(p)) / 2``
    holds for every pairing.
    """
    n = len(pairing.context)
    index = pairing.context._index
    doubled = IndexSet.range(2 * n)
    pairs: list[tuple[int, int]] = []
    for s, t in pairing.pairs:
        ps, pt = index[s] + 1, index[t] + 1
        pairs.append((ps, pt))
        pairs.append((2 * n + 1 - pt, 2 * n + 1 - ps))
    for x in pairing.free():
        px = index[x] + 1
        pairs.append((px, 2 * n + 1 - px))
    return Pairing(tuple(pairs), doubled)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

#: Number of shapes that ``pairing_table`` and ``perfect_pairing_arrays`` each keep.
TABLE_CACHE_SIZE = 256


def _list_pairings(n: int, k: int | None) -> tuple:
    """The arcs of each pairing, uncached: ``pairing_table`` and
    ``perfect_pairing_arrays`` add the statistics they need and cache."""
    if k is not None and k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    covered = [False] * n
    arcs: list[tuple[int, int]] = []
    table = []

    # Arcs are placed in increasing order of their first position, which
    # yields the pairings in lexicographic order.
    def rec(start: int) -> None:
        if k is None or len(arcs) == k:
            table.append(tuple(arcs))
            if len(arcs) == k:
                return
        # open positions from s on; one skipped over stays free
        remaining = sum(1 for i in range(start, n) if not covered[i])
        for s in range(start, n):
            if covered[s]:
                continue
            if k is not None and 2 * (k - len(arcs)) > remaining:
                break
            remaining -= 1
            covered[s] = True
            for t in range(s + 1, n):
                if not covered[t]:
                    arcs.append((s, t))
                    covered[t] = True
                    rec(s + 1)
                    covered[t] = False
                    arcs.pop()
            covered[s] = False

    rec(0)
    return tuple(table)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def pairing_table(n: int, k: int | None = None) -> tuple:
    """The pairings of positions ``0..n-1``, as ``(pairs, cr, sp)``.

    With ``k``, only pairings of exactly ``k`` arcs are listed.  ``pairs`` is
    sorted by first position and the entries come in lexicographic order of
    ``pairs``.

    >>> for entry in pairing_table(3):
    ...     print(entry)
    ((), 0, 0)
    (((0, 1),), 0, 0)
    (((0, 2),), 0, 1)
    (((1, 2),), 0, 0)
    """
    return tuple((pairs, *_arc_stats(pairs, range(n))) for pairs in _list_pairings(n, k))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def perfect_pairing_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The perfect pairings of positions ``0..n-1`` (n even), as arrays ``(cr, S, T)``.

    Row j of ``S`` and of ``T`` holds the first and second positions of the
    j-th arc of every pairing; the columns come in ``pairing_table(n, n // 2)``
    order, and ``cr`` holds their crossing numbers.  The arrays are
    read-only, and no tuple table is kept for them.

    >>> cr, S, T = perfect_pairing_arrays(4)
    >>> cr.tolist(), S.tolist(), T.tolist()
    ([0, 1, 0], [[0, 0, 0], [2, 1, 1]], [[1, 2, 3], [3, 3, 2]])
    """
    if n % 2:
        raise ValueError(f"a perfect pairing needs an even n, got {n}")
    table = _list_pairings(n, n // 2)
    cr = np.array([_arc_stats(pairs, range(n))[0] for pairs in table], dtype=np.intp)
    arcs = np.array(table, dtype=np.intp).reshape(len(table), n // 2, 2)
    S, T = np.ascontiguousarray(arcs[:, :, 0].T), np.ascontiguousarray(arcs[:, :, 1].T)
    for a in (cr, S, T):
        a.flags.writeable = False
    return cr, S, T


def enumerate_pairings(context: IndexSet, k: int | None = None) -> list[Pairing]:
    """All pairings of ``context`` (with exactly ``k`` pairs when given).

    The result is duplicate-free and sorted lexicographically on the
    canonical pair list, so the empty pairing comes first.

    >>> [p.pairs for p in enumerate_pairings(IndexSet.range(3))]
    [(), ((1, 2),), ((1, 3),), ((2, 3),)]
    """
    labels = context.elements
    table = pairing_table(len(context), k)
    return [Pairing(tuple((labels[s], labels[t]) for s, t in pairs), context)
            for pairs, _, _ in table]


def coset_reps(n: int, k: int) -> list[CosetRep]:
    """Minimum-inversion representatives of the two-block cosets of S_n.

    A representative is a permutation whose values ``1..k`` appear in
    increasing order of position, and likewise the values ``k+1..n``; there
    are exactly ``C(n, k)`` of them.  Results are sorted by one-line notation.

    >>> [(r.permutation, r.inversions) for r in coset_reps(3, 1)]
    [((1, 2, 3), 0), ((2, 1, 3), 1), ((2, 3, 1), 2)]
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    reps = []
    for positions in itertools.combinations(range(n), k):
        chosen = set(positions)
        places = positions + tuple(i for i in range(n) if i not in chosen)
        perm = [0] * n
        for value, i in enumerate(places, 1):
            perm[i] = value
        # the low value at p_j is passed by the p_j - j high values before it
        reps.append(CosetRep(tuple(perm), sum(p - j for j, p in enumerate(positions))))
    reps.sort(key=lambda r: r.permutation)
    assert len(reps) == comb(n, k)
    return reps


def double_factorial_odd(k: int) -> int:
    """(2k-1)!! with the convention (-1)!! = 1."""
    out = 1
    for j in range(1, 2 * k, 2):
        out *= j
    return out
