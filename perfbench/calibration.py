"""A fixed reference workload that measures how fast the host runs Python.

The host is shared: its speed for this kind of work switches by up to 1.8x
within seconds, CPU time moving with wall time, so raw times from runs
minutes apart differ by more than any useful regression bound.  Each pass
therefore runs this reference between stretches of its timed work and
scales each stretch by REFERENCE_S over the mean of the reference times
around it, which gives seconds on a host that runs the reference in
REFERENCE_S.  The reference mimics lexlab's hot loops (fraction-free integer
elimination, then monomial divisibility and dict churn) so that it slows
down with the host as lexlab does, and it never calls lexlab, so no change
to lexlab can move it.
"""

from __future__ import annotations

from time import perf_counter

# the unit: about the median reference time on the 2-core Xeon host where
# the bounds were set
REFERENCE_S = 0.007

# a dense small matrix and a sparse larger one, as in gin's coordinate
# changes and in the engine's coboundary blocks
_DENSE = [[(-1, 0, 0, 1)[(7 * i + 13 * j + i * j * j) % 4] for j in range(40)]
          for i in range(40)]
_SPARSE = [[(-1, 0, 0, 0, 1, 0)[(7 * i + 13 * j + i * j * j + 1) % 6] for j in range(70)]
           for i in range(70)]
SPARSE_RUNS = 3


def _monomials(n: int, d: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(d,)]
    return [(a,) + t for a in range(d, -1, -1) for t in _monomials(n - 1, d - a)]


def _rank(rows) -> int:
    m = [list(row) for row in rows]
    rank, prev = 0, 1
    for c in range(len(m[0])):
        best = None
        for r in range(rank, len(m)):
            v = m[r][c]
            if v and (best is None or abs(v) < abs(m[best][c])):
                best = r
        if best is None:
            continue
        m[rank], m[best] = m[best], m[rank]
        piv_row = m[rank]
        piv = piv_row[c]
        for r in range(rank + 1, len(m)):
            row = m[r]
            f = row[c]
            for j in range(c, len(row)):
                row[j] = (piv * row[j] - f * piv_row[j]) // prev
        prev = piv
        rank += 1
    return rank


def _reference_work() -> int:
    rank = _rank(_DENSE) + sum(_rank(_SPARSE) for _ in range(SPARSE_RUNS))
    monos = _monomials(4, 6)
    kept: list[tuple[int, ...]] = []
    for u in sorted(monos, key=lambda u: (sum(u), u))[:120]:
        if not any(all(a <= b for a, b in zip(g, u)) for g in kept):
            kept.append(u)
    counts: dict[tuple[int, ...], int] = {}
    for u in monos:
        key = tuple(max(a, 1) for a in u)
        counts[key] = counts.get(key, 0) + 1
    return rank + len(kept) + len(counts)


def reference_s() -> float:
    """Wall time of one run of the reference workload."""
    start = perf_counter()
    _reference_work()
    return perf_counter() - start
