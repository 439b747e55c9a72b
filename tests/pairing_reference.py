"""Brute-force pairing references shared by the tests.

``reference_table`` lists the pairings of a row of positions whose arcs join
different classes, with fixed arcs that count towards the statistics but are
never enumerated.  It is the class rule the insertion product obeys, kept here
as a test oracle: ``restricted_wick_by_pairings`` sums the insertion product
one contraction per admissible pairing, as the product is defined.
``contraction_stats_by_pairs`` and ``moment_by_pairings`` keep the direct
pair-by-pair definitions of ``contraction_stats`` and ``moment`` as oracles.
"""
import functools
import itertools

import numpy as np

from qfock.combinat import pairing_table
from qfock.polywick import LEG
from qfock.wickalg import sum_chaos


@functools.lru_cache(maxsize=None)
def all_pairings(positions):
    """Every partial pairing of ``positions``, in lexicographic order."""
    def rec(rest):
        if not rest:
            yield ()
            return
        head, tail = rest[0], rest[1:]
        yield from rec(tail)
        for i, other in enumerate(tail):
            for p in rec(tail[:i] + tail[i + 1:]):
                yield ((head, other),) + p

    return tuple(sorted(rec(positions)))


@functools.lru_cache(maxsize=None)
def stats(arcs, n):
    """(cr, sp) by definition: crossing arc pairs, and free positions inside arcs."""
    covered = {x for arc in arcs for x in arc}
    cr = sum(1 for (i, j), (k, l) in itertools.combinations(arcs, 2)
             if i < k < j < l or k < i < l < j)
    sp = sum(1 for s, t in arcs for x in range(n) if x not in covered and s < x < t)
    return cr, sp


def contraction_stats_by_pairs(pairing):
    """(cr, sp, cr + sp) by definition: crossing arc pairs, and free labels inside arcs."""
    cr = sum(1 for (i, j), (k, l) in itertools.combinations(pairing.pairs, 2)
             if i < k < j < l or k < i < l < j)
    free = pairing.free()
    sp = sum(1 for (s, t) in pairing.pairs for x in free if s < x < t)
    return cr, sp, cr + sp


def moment_by_pairings(vectors, q):
    """The vacuum moment one perfect pairing at a time: ``q ** cr`` times the
    arcs' inner products, taken arc by arc, added one after another from 0.0."""
    fs = [np.asarray(f, dtype=float) for f in vectors]
    n = len(fs)
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return 1.0
    gram = np.array([[float(np.dot(a, b)) for b in fs] for a in fs])
    total = 0.0
    for pairs, cr, _ in pairing_table(n, n // 2):
        term = q ** cr
        for s, t in pairs:
            term *= gram[s, t]
        total += term
    return total


@functools.lru_cache(maxsize=None)
def reference_table(classes, fixed=()):
    """The pairings of positions ``0..n-1`` outside ``fixed`` that join different
    classes, as ``(pairs, cr, sp)`` with the statistics of ``fixed ∪ pairs``."""
    fixed_pos = {x for arc in fixed for x in arc}
    open_pos = [i for i in range(len(classes)) if i not in fixed_pos]
    return tuple((pairs, *stats(tuple(fixed) + pairs, len(classes)))
                 for pairs in all_pairings(tuple(open_pos))
                 if all(classes[s] != classes[t] for s, t in pairs))


def restricted_wick_by_pairings(pattern, pi, F, Gs, q):
    """The insertion product as a sum over pairings, one ``einsum`` per pairing.

    The row has one position per leg slot and one per axis of each insert.  A
    free leg has class 0 and the axes of the j-th insert class j; a leg that
    ``pi`` contracts has class None and its arc is fixed.  Terms are formed
    and added in ``np.longdouble``.
    """
    classes, row_of_leg, free = [], {}, set(pi.free())
    inserts = iter(range(1, len(Gs) + 1))
    for slot, kind in enumerate(pattern.slots, 1):
        if kind == LEG:
            row_of_leg[slot] = len(classes)
            classes.append(0 if slot in free else None)
        else:
            j = next(inserts)
            classes.extend([j] * Gs[j - 1].degree)
    fixed = tuple((row_of_leg[s], row_of_leg[t]) for s, t in pi.pairs)
    operands = [np.asarray(T.data, dtype=np.longdouble) for T in [F, *Gs]]
    rows = [r for r, c in enumerate(classes) if c is not None]
    ql = np.longdouble(q)
    acc = {}
    for sigma, cr, sp in reference_table(tuple(classes), fixed):
        label = {r: i for i, r in enumerate(rows)}
        for x, y in sigma:
            label[y] = label[x]
        paired = {r for pair in sigma for r in pair}
        args = []
        for op, data in enumerate(operands):
            args.extend([data, [label[r] for r in rows if classes[r] == op]])
        args.append([label[r] for r in rows if r not in paired])
        term = ql ** (cr + sp) * np.einsum(*args)
        acc[term.ndim] = acc[term.ndim] + term if term.ndim in acc else term
    return sum_chaos(F.d, (a.astype(float) for a in acc.values()))
