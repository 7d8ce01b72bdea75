"""Local cohomology tables of monomial quotients from Takayama's degree complexes.

For a in Z^n let G = {j : a_j < 0}.  Takayama's formula (Bull. Math. Soc.
Sci. Math. Roumanie 48, 2005) gives dim H^i_m(R/I)_a = dim H~_(i-|G|-1)(Delta_a; Q),
where Delta_a is the complex of faces F of [n] - G such that every minimal
generator u has some j outside F and G with u_j > a_j; the entry vanishes
unless a_j < rho_j for every j outside G, rho_j being the largest exponent of
x_j among the generators.  Delta_a depends only on G and on the bounded part
of a off G, so each ideal reduces to finitely many degree types, and a table
entry is a sum of binomial counts over them: no lattice enumeration, and a
cost linear in the number of generators.  The complexes have at most n
vertices and their homology is exact, by fraction-free elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from itertools import product
from math import comb
from operator import or_

from .errors import InternalInconsistency
from .hilbert import dimension
from .ideals import MonomialIdeal, is_strongly_stable
from .linalg import fraction_free_rank
from .ring import monomial_lcm, total_degree


@dataclass(frozen=True)
class DegreeWindow:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty degree window [{self.lo}, {self.hi}]")

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def covers(self, other: "DegreeWindow") -> bool:
        return self.lo <= other.lo and self.hi >= other.hi


def default_window(*ideals: MonomialIdeal) -> DegreeWindow:
    """Window wide enough for every finite feature of the given quotients:
    the top is a regularity bound from the generator lcm, the bottom adds a
    fixed margin into the infinite negative tail."""
    n = ideals[0].ring.n
    hi = 1
    for ideal in ideals:
        if ideal.gens:
            full = reduce(monomial_lcm, ideal.gens)
            hi = max(hi, total_degree(full) + 1)
    return DegreeWindow(-(hi + n + 2), hi)


# -- the degree-complex engine -------------------------------------------------


@lru_cache(maxsize=4096)
def _reduced_homology(free: int, nonfaces: tuple[int, ...]) -> tuple[int, ...]:
    """dim H~_(k-1)(Delta; Q) for k = 0..|free|, where Delta is the simplicial
    complex on the vertex bit mask `free` with the given minimal non-faces."""
    layers: list[dict[int, int]] = [{} for _ in range(free.bit_count() + 1)]
    for face in range(free + 1):
        if face & free == face and not any(face & m == m for m in nonfaces):
            layer = layers[face.bit_count()]
            layer[face] = len(layer)
    ranks = [0] * (len(layers) + 1)  # ranks[k]: boundary map on the k-vertex faces
    for k in range(1, len(layers)):
        if not layers[k]:
            break  # faces are closed under subsets: no larger ones either
        rows = []
        for face in layers[k]:
            row = [0] * len(layers[k - 1])
            sign = 1
            for v in range(free.bit_length()):
                if face >> v & 1:
                    row[layers[k - 1][face ^ (1 << v)]] = sign
                    sign = -sign
            rows.append(row)
        ranks[k] = fraction_free_rank(rows)
    return tuple(len(layers[k]) - ranks[k] - ranks[k + 1] for k in range(len(layers)))


@lru_cache(maxsize=256)
def _engine(ideal: MonomialIdeal) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Degree types of R/I.  Row i holds triples (g, s, mult): mult sums
    dim H~_(i-g-1)(Delta_a) over the pairs (G, b) with |G| = g and |b| = s, and
    each pair stands for every multidegree a that puts negative entries on G."""
    n = ideal.ring.n
    gens = ideal.gens
    # Delta_a sees b only through the comparisons u_j > b_j, so each b_j runs
    # over the cells [cut, next cut) between the exponents of x_j; b_j >= rho_j,
    # the last cut, would make j a cone apex or the complex void
    cuts = [sorted({u[j] for u in gens} | {0}) for j in range(n)]
    # above[j][t]: per generator, the bit of j when its x_j exponent exceeds cut t
    above = [[[1 << j if u[j] > c else 0 for u in gens] for c in cuts[j]] for j in range(n)]
    zeros = [0] * len(gens)
    types: dict[tuple[int, int, int], int] = {}
    for negative in range(1 << n):
        free = [j for j in range(n) if not negative >> j & 1]
        free_mask = (1 << n) - 1 - negative
        g = n - len(free)
        for cell in product(*(range(len(cuts[j]) - 1) for j in free)):
            columns = [above[j][t] for j, t in zip(free, cell)]
            nonfaces = set(map(sum, zip(zeros, *columns)))  # one per generator
            if 0 in nonfaces:
                continue  # the void complex
            minimal = tuple(sorted(m for m in nonfaces
                                   if not any(o != m and o & m == o for o in nonfaces)))
            if reduce(or_, minimal, 0) != free_mask:
                continue  # a vertex in no minimal non-face is the apex of a cone
            homology = _reduced_homology(free_mask, minimal)
            sizes = {0: 1}  # points of the cell by total degree
            for j, t in zip(free, cell):
                sizes = _add_interval(sizes, cuts[j][t], cuts[j][t + 1])
            for k, h in enumerate(homology):
                if h:
                    for s, count in sizes.items():
                        key = (g + k, g, s)
                        types[key] = types.get(key, 0) + h * count
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    for (i, g, s), mult in sorted(types.items()):
        rows[i].append((g, s, mult))
    return tuple(map(tuple, rows))


def _add_interval(sizes: dict[int, int], lo: int, hi: int) -> dict[int, int]:
    """Counts by total degree after appending a coordinate in [lo, hi)."""
    out: dict[int, int] = {}
    for s, count in sizes.items():
        for v in range(lo, hi):
            out[s + v] = out.get(s + v, 0) + count
    return out


def _row_value(types: tuple[tuple[int, int, int], ...], d: int) -> int:
    """Total degree d part of one row: a type (g, s) meets degree d in the
    binom(s - d - 1, g - 1) ways of writing s - d as g positive parts."""
    total = 0
    for g, s, mult in types:
        if g == 0:
            total += mult if s == d else 0
        elif s - d >= g:
            total += mult * comb(s - d - 1, g - 1)
    return total


def ext_dimensions(ideal: MonomialIdeal, i: int, window: DegreeWindow) -> dict[int, int]:
    """dim Ext^i(R/I, omega)_d for every degree d in the window, by graded
    local duality: Ext^i(R/I, omega)_d = H^(n-i)_m(R/I)_(-d)."""
    rows = _engine(ideal)
    types = rows[ideal.ring.n - i] if 0 <= i <= ideal.ring.n else ()
    return {d: _row_value(types, -d) for d in window.degrees()}


# -- local cohomology tables ----------------------------------------------------


@dataclass(frozen=True, eq=True)
class LCTable:
    """Graded dimensions h^i(R/I)_j on a finite degree window (zeros omitted)."""

    nvars: int
    window: DegreeWindow
    entries: dict  # (i, j) -> positive dimension

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def row(self, i: int) -> dict[int, int]:
        return {j: v for (ii, j), v in sorted(self.entries.items()) if ii == i}

    def nonzero_rows(self) -> list[int]:
        return sorted({i for (i, _) in self.entries})

    def to_json(self) -> dict:
        rows: dict[str, dict[str, int]] = {}
        for (i, j), v in sorted(self.entries.items()):
            rows.setdefault(str(i), {})[str(j)] = v
        return {"window": [self.window.lo, self.window.hi], "nvars": self.nvars,
                "rows": rows}

    @classmethod
    def from_json(cls, data: dict) -> "LCTable":
        entries = {}
        for i, row in data["rows"].items():
            for j, v in row.items():
                entries[(int(i), int(j))] = v
        lo, hi = data["window"]
        return cls(data["nvars"], DegreeWindow(lo, hi), entries)

    def table_str(self) -> str:
        js = list(self.window.degrees())
        head = "i\\j " + " ".join(f"{j:>4}" for j in js)
        lines = [head]
        for i in range(self.nvars + 1):
            lines.append(f"{i:>3} " + " ".join(f"{self.get(i, j):>4}" for j in js))
        return "\n".join(lines)


def local_cohomology_table(ideal: MonomialIdeal, window: DegreeWindow | None = None) -> LCTable:
    """h^i(R/I)_j for 0 <= i <= n and j in the window."""
    window = window or default_window(ideal)
    entries: dict[tuple[int, int], int] = {}
    for i, types in enumerate(_engine(ideal)):
        for j in window.degrees():
            value = _row_value(types, j)
            if value:
                entries[(i, j)] = value
    return LCTable(ideal.ring.n, window, entries)


def tables_agree(a: LCTable, b: LCTable, window: DegreeWindow) -> tuple[int, int] | None:
    """First (i, j) where the tables differ on the window, or None."""
    for i in range(max(a.nvars, b.nvars) + 1):
        for j in window.degrees():
            if a.get(i, j) != b.get(i, j):
                return (i, j)
    return None


# -- derived invariants ----------------------------------------------------------


def depth_and_dim(ideal: MonomialIdeal) -> tuple[int, int]:
    """(depth, dim) of R/I; the depth is the lowest row of the degree types,
    since every type is nonzero in some degree."""
    if ideal.is_unit:
        raise ValueError("depth of the zero module is not defined here")
    dim = dimension(ideal)
    depth = next((i for i, types in enumerate(_engine(ideal)) if types), None)
    if depth is None:
        raise InternalInconsistency(f"no nonvanishing cohomology found for {ideal}")
    if is_strongly_stable(ideal):
        pd = max((max(t for t, e in enumerate(g) if e) + 1 for g in ideal.gens), default=0)
        if depth != ideal.ring.n - pd:
            raise InternalInconsistency(
                f"depth {depth} contradicts the last-variable criterion on {ideal}")
    return depth, dim


class SequentialCMVerdict(Enum):
    CONSISTENT = "ConsistentWithSequentiallyCM"
    NOT_SEQUENTIALLY_CM = "NotSequentiallyCM"


def sequentially_cm_verdict(ideal: MonomialIdeal, trials: int = 3, seed: int = 0,
                            gin_ideal: MonomialIdeal | None = None) -> SequentialCMVerdict:
    """Windowed semi-decision: local cohomology of R/I against R/gin(I).

    A mismatch refutes sequential Cohen-Macaulayness; agreement on the window
    is consistency, not proof.
    """
    if ideal.is_unit:
        raise ValueError("verdict needs a proper ideal")
    if gin_ideal is None:
        from .groebner import gin
        gin_ideal = gin(ideal, trials=trials, seed=seed)
    window = default_window(ideal, gin_ideal)
    ours = local_cohomology_table(ideal, window)
    theirs = local_cohomology_table(gin_ideal, window)
    if tables_agree(ours, theirs, window) is None:
        return SequentialCMVerdict.CONSISTENT
    return SequentialCMVerdict.NOT_SEQUENTIALLY_CM


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
