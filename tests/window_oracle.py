"""Windowed reference routes for local cohomology tables.

The library compares rows exactly, through their numerators.  These oracles
work degree by degree on a finite window instead, as the library once did:

- `lcm_window` is wide enough for every finite feature of the quotients: its
  top is the regularity bound deg lcm(generators) + 1, its bottom adds a
  fixed margin into the infinite negative tail;
- `windowed_mismatch` and `windowed_rows_equal` compare two tables entry by
  entry on a window;
- `adjoin_variable` is the extension recursion: the table of S/IS for
  S = R[X] as tail sums of the table of R/I;
- `table_by_hilbert_values` fills a table from the library's row numerators
  as the library once did, each row's reflected numerator expanded by
  `lexlab.hilbert.hilbert_values`, against the running sums that
  `lexlab.local_cohomology_table` now takes inline.
"""

from __future__ import annotations

from functools import reduce

from lexlab import DegreeWindow, LCTable, MonomialIdeal
from lexlab.cohomology import _engine
from lexlab.hilbert import hilbert_values
from lexlab.ring import monomial_lcm, total_degree


def lcm_window(*ideals: MonomialIdeal) -> DegreeWindow:
    n = ideals[0].ring.n
    hi = 1
    for ideal in ideals:
        if ideal.gens:
            full = reduce(monomial_lcm, ideal.gens)
            hi = max(hi, total_degree(full) + 1)
    return DegreeWindow(-(hi + n + 2), hi)


def windowed_mismatch(a: LCTable, b: LCTable, window: DegreeWindow) -> tuple[int, int] | None:
    """First (i, j), by row and then degree, where the tables differ on the
    window, or None."""
    for i in range(max(a.nvars, b.nvars) + 1):
        for j in window.degrees():
            if a.get(i, j) != b.get(i, j):
                return (i, j)
    return None


def windowed_rows_equal(a: LCTable, b: LCTable) -> tuple[bool, ...]:
    """Per cohomological index, whether the rows agree on the tables' window."""
    return tuple(a.row(i) == b.row(i) for i in range(a.nvars + 1))


def adjoin_variable(table: LCTable, window: DegreeWindow) -> LCTable:
    """Table of S/IS for S = R[X] from the table of R/I:
    the new entry at (i, j) is the tail sum of row i-1 above degree j."""
    if window.lo + 1 < table.window.lo:
        raise ValueError("input table does not cover the tail required by the output window")
    entries: dict[tuple[int, int], int] = {}
    for i_out in range(1, table.nvars + 2):
        row = table.row(i_out - 1)
        acc = 0
        tail: dict[int, int] = {}
        for j in range(table.window.hi, window.lo, -1):
            acc += row.get(j, 0)
            tail[j] = acc
        for j in window.degrees():
            v = tail.get(j + 1, 0)
            if v:
                entries[(i_out, j)] = v
    return LCTable(table.nvars + 1, window, entries)


def table_by_hilbert_values(ideal: MonomialIdeal, window: DegreeWindow) -> LCTable:
    """h^i(R/I)_j on the window: row i read down from its top, as
    `hilbert_values` expands its reflected numerator."""
    n = ideal.ring.n
    entries: dict[tuple[int, int], int] = {}
    for i, numerator in enumerate(_engine(ideal)):
        if not numerator:
            continue
        last = max(numerator)
        reflected = [0] * (last - min(numerator) + 1)
        for k, c in numerator.items():
            reflected[last - k] = c
        for j, value in zip(range(last - n, window.lo - 1, -1), hilbert_values(reflected, n)):
            if value and j <= window.hi:
                entries[(i, j)] = value
    return LCTable(n, window, entries)
