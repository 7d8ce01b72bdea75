"""Independent reference route for local cohomology: the Taylor resolution.

The library computes local cohomology from degree complexes; these oracles
compute the same numbers from the subset-indexed Taylor resolution of R/I and
graded local duality, with no code in common beyond the monomial helpers and
the fraction-free rank.  Two routes live here:

- the direct route assembles whole graded components of the dualized
  resolution maps and takes their ranks (`_ext_dimensions_direct`);
- the block engine splits each degree along the fine grading into signed
  incidence complexes of generator subsets, skips those exact for visible
  combinatorial reasons (cones), and eliminates the rest
  (`LocalCohomologyEngine`, `oracle_table`).

Both are exponential in the number of generators, hence the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from helpers import GeneratorCapExceeded

from lexlab import DegreeWindow, LCTable, MonomialIdeal, RingSpec
from lexlab.errors import InternalInconsistency
from lexlab.linalg import fraction_free_rank
from lexlab.ring import Exp, enumerate_monomials, monomial_lcm, monomial_mul, total_degree

GENERATOR_CAP = 20


def sparse_rank(cells, nrows: int, ncols: int) -> int:
    """Rank of a sparse integer matrix given as (row, col, value) triples.

    Splits into connected components first; each component is eliminated
    independently, which keeps the dense work proportional to the block sizes.
    """
    cells = [(r, c, v) for r, c, v in cells if v]
    if not cells:
        return 0

    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for r, c, _ in cells:
        union(("r", r), ("c", c))

    groups: dict[tuple[str, int], list[tuple[int, int, int]]] = {}
    for r, c, v in cells:
        groups.setdefault(find(("r", r)), []).append((r, c, v))

    total = 0
    for block in groups.values():
        rids = sorted({r for r, _, _ in block})
        cids = sorted({c for _, c, _ in block})
        ridx = {r: i for i, r in enumerate(rids)}
        cidx = {c: i for i, c in enumerate(cids)}
        dense = [[0] * len(cids) for _ in rids]
        for r, c, v in block:
            dense[ridx[r]][cidx[c]] += v
        total += fraction_free_rank(dense)
    return total


# -- complexes of graded free modules -----------------------------------------


@dataclass(frozen=True)
class Differential:
    """A map of graded free modules with signed-monomial entries.

    Degrees are the generator degrees of the summands; an entry
    (row, col, coeff, monomial) sends the col generator to
    coeff * monomial * (row generator).
    """

    ring: RingSpec
    source_degrees: tuple[int, ...]
    target_degrees: tuple[int, ...]
    entries: tuple[tuple[int, int, int, Exp], ...]

    def __post_init__(self) -> None:
        for r, c, coeff, m in self.entries:
            if not coeff:
                raise ValueError("zero coefficient stored in a differential")
            if self.target_degrees[r] + total_degree(m) != self.source_degrees[c]:
                raise ValueError("entry monomial degree inconsistent with shifts")


def graded_component_rank(diff: Differential, j: int) -> int:
    """Rank over Q of the degree-j component of the map."""
    n = diff.ring.n
    src_offsets = []
    src_monos = []
    count = 0
    for sd in diff.source_degrees:
        monos = enumerate_monomials(n, j - sd) if j >= sd else ()
        src_offsets.append(count)
        src_monos.append(monos)
        count += len(monos)
    ncols = count
    tgt_index: dict[tuple[int, Exp], int] = {}
    count = 0
    for r, td in enumerate(diff.target_degrees):
        for u in (enumerate_monomials(n, j - td) if j >= td else ()):
            tgt_index[(r, u)] = count
            count += 1
    nrows = count
    cells = []
    for r, c, coeff, m in diff.entries:
        for k, u in enumerate(src_monos[c]):
            cells.append((tgt_index[(r, monomial_mul(u, m))], src_offsets[c] + k, coeff))
    return sparse_rank(cells, nrows, ncols)


def _subset_sign(mask: int, i: int) -> int:
    below = bin(mask & ((1 << i) - 1)).count("1")
    return -1 if below % 2 else 1


class TaylorComplex:
    """Subset-indexed free resolution of R/I.

    Position k is free of rank binom(mu, k); the summand of a generator
    subset sits in degree equal to the total degree of the subset's lcm.
    """

    def __init__(self, ideal: MonomialIdeal, cap: int = GENERATOR_CAP):
        mu = len(ideal.gens)
        if mu > cap:
            raise GeneratorCapExceeded(
                f"{mu} generators exceed the resolution cap of {cap}")
        self.ideal = ideal
        self.ring = ideal.ring
        self.gens = ideal.gens
        self.mu = mu
        self._masks: dict[int, list[int]] = {}
        self._index: dict[int, dict[int, int]] = {}
        self._lcm_cache: dict[int, Exp] = {0: ideal.ring.unit_monomial()}

    @property
    def length(self) -> int:
        return self.mu

    def rank(self, k: int) -> int:
        return comb(self.mu, k) if 0 <= k <= self.mu else 0

    def masks(self, k: int) -> list[int]:
        if k not in self._masks:
            out = [sum(1 << i for i in sel) for sel in combinations(range(self.mu), k)]
            self._masks[k] = out
            self._index[k] = {m: t for t, m in enumerate(out)}
        return self._masks[k]

    def subset_lcm(self, mask: int) -> Exp:
        cached = self._lcm_cache.get(mask)
        if cached is None:
            low = (mask & -mask).bit_length() - 1
            cached = monomial_lcm(self.subset_lcm(mask ^ (1 << low)), self.gens[low])
            self._lcm_cache[mask] = cached
        return cached

    def shifts(self, k: int) -> tuple[int, ...]:
        """Twists of position k: minus the degree of each subset lcm."""
        return tuple(-total_degree(self.subset_lcm(m)) for m in self.masks(k))

    def differential(self, k: int) -> Differential:
        """The map from position k to position k-1."""
        if not 1 <= k <= self.mu:
            raise ValueError(f"no differential at position {k}")
        src = self.masks(k)
        tgt_index = self._index_for(k - 1)
        entries = []
        for col, mask in enumerate(src):
            big = self.subset_lcm(mask)
            for i in range(self.mu):
                if mask & (1 << i):
                    sub = mask ^ (1 << i)
                    small = self.subset_lcm(sub)
                    quot = tuple(a - b for a, b in zip(big, small))
                    entries.append((tgt_index[sub], col, _subset_sign(mask, i), quot))
        return Differential(
            self.ring,
            tuple(total_degree(self.subset_lcm(m)) for m in src),
            tuple(total_degree(self.subset_lcm(m)) for m in self.masks(k - 1)),
            tuple(entries))

    def dual_differential(self, k: int) -> Differential:
        """Hom(position k, omega) -> Hom(position k+1, omega), omega = R(-n)."""
        if not 0 <= k < self.mu:
            raise ValueError(f"no dual differential at position {k}")
        n = self.ring.n
        src = self.masks(k)
        src_index = self._index_for(k)
        entries = []
        for row, mask in enumerate(self.masks(k + 1)):
            big = self.subset_lcm(mask)
            for i in range(self.mu):
                if mask & (1 << i):
                    sub = mask ^ (1 << i)
                    small = self.subset_lcm(sub)
                    quot = tuple(a - b for a, b in zip(big, small))
                    entries.append((row, src_index[sub], _subset_sign(mask, i), quot))
        return Differential(
            self.ring,
            tuple(n - total_degree(self.subset_lcm(m)) for m in src),
            tuple(n - total_degree(self.subset_lcm(m)) for m in self.masks(k + 1)),
            tuple(entries))

    def _index_for(self, k: int) -> dict[int, int]:
        self.masks(k)
        return self._index[k]


def taylor_complex(ideal: MonomialIdeal, cap: int = GENERATOR_CAP) -> TaylorComplex:
    return TaylorComplex(ideal, cap)


def verify_complex(tc: TaylorComplex) -> None:
    """Check d o d = 0 symbolically on generators; raises on failure."""
    for k in range(2, tc.mu + 1):
        outer = tc.differential(k - 1)
        inner = tc.differential(k)
        by_col: dict[int, list[tuple[int, int, Exp]]] = {}
        for r, c, coeff, m in outer.entries:
            by_col.setdefault(c, []).append((r, coeff, m))
        acc: dict[tuple[int, int, Exp], int] = {}
        for mid, col, coeff1, m1 in inner.entries:
            for r, coeff2, m2 in by_col.get(mid, ()):
                key = (r, col, monomial_mul(m1, m2))
                acc[key] = acc.get(key, 0) + coeff1 * coeff2
        if any(acc.values()):
            raise InternalInconsistency(f"composite of differentials {k - 1}, {k} is nonzero")


# -- the block engine -----------------------------------------------------------


class LocalCohomologyEngine:
    """Exact graded Ext dimensions of R/I against omega = R(-n).

    Works block by block in the fine grading; a block is determined by the
    threshold vector c = max(0, 1 - a) of its exponent vector a, so results
    are cached per threshold.
    """

    def __init__(self, ideal: MonomialIdeal, cap: int = GENERATOR_CAP):
        self.ideal = ideal
        self.n = ideal.ring.n
        self.gens = ideal.gens
        self.mu = len(ideal.gens)
        if self.mu > cap:
            raise GeneratorCapExceeded(
                f"{self.mu} generators exceed the resolution cap of {cap}")
        size = 1 << self.mu
        lcms: list[Exp] = [ideal.ring.unit_monomial()] * size
        for mask in range(1, size):
            low = (mask & -mask).bit_length() - 1
            lcms[mask] = monomial_lcm(lcms[mask ^ (1 << low)], self.gens[low])
        self._lcms = lcms
        self._popcount = [bin(m).count("1") for m in range(size)]
        self._full_lcm = lcms[size - 1]
        self._blocks: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._ext: dict[int, tuple[int, ...]] = {}

    # each exponent vector a contributes the cohomology of the subset family
    # U = { S : lcm(S) >= c } with c = max(0, 1 - a), computed on whichever of
    # U or its complement is smaller.

    def _block(self, c: tuple[int, ...]) -> tuple[int, ...]:
        cached = self._blocks.get(c)
        if cached is None:
            cached = self._compute_block(c)
            self._blocks[c] = cached
        return cached

    def _compute_block(self, c: tuple[int, ...]) -> tuple[int, ...]:
        mu = self.mu
        zeros = (0,) * (mu + 1)
        if all(v == 0 for v in c):
            # every subset present: the full boolean complex, which is exact
            return zeros
        present_masks: list[int] = []
        absent: list[int] = []
        for mask, lcm in enumerate(self._lcms):
            clears = all(e >= t for e, t in zip(lcm, c))
            (present_masks if clears else absent).append(mask)
        if not present_masks:
            return zeros
        active = [t for t in range(self.n) if c[t] > 0]
        for g in self.gens:
            if all(g[t] < c[t] for t in active):
                return zeros  # g never helps a subset across the threshold
        absent_set = set(absent)
        for i in range(mu):
            bit = 1 << i
            if all((m | bit) in absent_set for m in absent_set):
                return zeros  # complement family is a cone with apex i
        if len(present_masks) <= len(absent):
            dims, ranks = self._coboundary_data(present_masks)
            return tuple(dims[k] - ranks[k] - (ranks[k - 1] if k else 0)
                         for k in range(mu + 1))
        dims, ranks = self._coboundary_data(absent)
        betti = [0] * (mu + 1)
        for k in range(1, mu + 1):
            j = k - 1
            betti[k] = dims[j] - ranks[j] - (ranks[j - 1] if j else 0)
        return tuple(betti)

    def _coboundary_data(self, masks: list[int]) -> tuple[list[int], list[int]]:
        """Per-size counts and coboundary ranks of a subset family."""
        mu = self.mu
        by_size: dict[int, dict[int, int]] = {}
        for m in masks:
            layer = by_size.setdefault(self._popcount[m], {})
            layer[m] = len(layer)
        dims = [len(by_size.get(k, ())) for k in range(mu + 2)]
        ranks = [0] * (mu + 2)
        for k in range(mu + 1):
            src = by_size.get(k)
            tgt = by_size.get(k + 1)
            if not src or not tgt:
                continue
            rows = [[0] * len(src) for _ in range(len(tgt))]
            for m, col in src.items():
                for i in range(mu):
                    bit = 1 << i
                    if not m & bit:
                        up = tgt.get(m | bit)
                        if up is not None:
                            rows[up][col] = _subset_sign(m | bit, i)
            ranks[k] = fraction_free_rank(rows)
        return dims, ranks

    def ext_dims_at(self, d: int) -> tuple[int, ...]:
        """Vector of dim Ext^k(R/I, omega)_d for k = 0..mu."""
        cached = self._ext.get(d)
        if cached is not None:
            return cached
        n = self.n
        if self.mu == 0:
            val = comb(d - 1, n - 1) if d >= n else 0  # omega itself
            vec = (val,)
        else:
            lows = [1 - v for v in self._full_lcm]
            acc = [0] * (self.mu + 1)
            for a in self._exponent_vectors(lows, d):
                c = tuple(max(0, 1 - v) for v in a)
                block = self._block(c)
                for k, b in enumerate(block):
                    acc[k] += b
            vec = tuple(acc)
        self._ext[d] = vec
        return vec

    def _exponent_vectors(self, lows: list[int], d: int):
        """All integer vectors a >= lows with sum d and some coordinate <= 0."""
        n = self.n

        def rec(t: int, remaining: int, prefix: tuple[int, ...], nonpos: bool):
            if t == n - 1:
                if remaining >= lows[t] and (nonpos or remaining <= 0):
                    yield prefix + (remaining,)
                return
            tail_min = sum(lows[t + 1:])
            for v in range(lows[t], remaining - tail_min + 1):
                yield from rec(t + 1, remaining - v, prefix + (v,), nonpos or v <= 0)

        yield from rec(0, d, (), False)


def _ext_dimensions_direct(ideal: MonomialIdeal, i: int, window: DegreeWindow) -> dict[int, int]:
    """Reference path: assemble the dualized resolution maps and take ranks."""
    tc = TaylorComplex(ideal)
    n = ideal.ring.n

    def hom_dim(k: int, d: int) -> int:
        if not 0 <= k <= tc.mu:
            return 0
        total = 0
        for m in tc.masks(k):
            e = d - (n - total_degree(tc.subset_lcm(m)))
            if e >= 0:
                total += comb(e + n - 1, n - 1)
        return total

    def rank(k: int, d: int) -> int:
        if not 0 <= k < tc.mu:
            return 0
        return graded_component_rank(tc.dual_differential(k), d)

    out = {}
    for d in window.degrees():
        if 0 <= i <= tc.mu:
            out[d] = hom_dim(i, d) - rank(i, d) - rank(i - 1, d)
        else:
            out[d] = 0
    return out


def oracle_table(ideal: MonomialIdeal, window: DegreeWindow) -> LCTable:
    """h^i(R/I)_j from the block engine, via graded duality:
    h^i(R/I)_j = dim Ext^(n-i)(R/I, omega)_(-j)."""
    engine = LocalCohomologyEngine(ideal)
    n = ideal.ring.n
    entries: dict[tuple[int, int], int] = {}
    for j in window.degrees():
        vec = engine.ext_dims_at(-j)
        for i in range(n + 1):
            k = n - i
            if k < len(vec) and vec[k]:
                entries[(i, j)] = vec[k]
    return LCTable(n, window, entries)
