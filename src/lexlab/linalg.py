"""Exact integer linear algebra: fraction-free elimination for matrix ranks."""

from __future__ import annotations


def fraction_free_rank(rows) -> int:
    """Rank over Q of an integer matrix, by Bareiss one-step elimination.

    Intermediate entries are minors of the input, so every division below is
    exact and everything stays in (arbitrary-precision) integers.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        best = None
        for r in range(rank, len(m)):
            v = m[r][c]
            if v and (best is None or abs(v) < abs(m[best][c])):
                best = r
                if abs(v) == 1:
                    break
        if best is None:
            continue
        m[rank], m[best] = m[best], m[rank]
        piv_row = m[rank]
        piv = piv_row[c]
        for r in range(rank + 1, len(m)):
            row = m[r]
            f = row[c]
            for j in range(c, ncols):
                row[j] = (piv * row[j] - f * piv_row[j]) // prev
        prev = piv
        rank += 1
        if rank == len(m):
            break
    return rank
