"""Local cohomology tables of monomial quotients, as one numerator per row.

Each row is kept as one canonical numerator N over the basis of functions
j -> C(k - j - 1, n - 1): h^i(R/I)_j is the sum of N_i[k] C(k - j - 1, n - 1)
over k - j >= n.  The basis functions vanish above their top degree k - n,
and the tops of distinct k differ, so they are linearly independent: two
rows agree in every degree exactly when their numerators are equal, and
comparisons need no degree window.  Tables only display rows: with
top = max k - n, h^i(R/I)_(top-s) is the coefficient of t^s in the
reflected numerator sum N_i[k] t^(top+n-k) over (1-t)^n.  Two routes fill
the rows, one for each kind of input, and no input can take both.

A strongly stable ideal takes a closed form.  With x_1 > ... > x_n, let M_k
be I with x_(k+1), ..., x_n set to 1, so M_n = I, M_(n-1) = I^sat,
M_0 = R for I != 0 (every generator goes to 1) and M_(-1) = R.  R/I is
sequentially Cohen-Macaulay with the filtration by the M_k/I (Herzog-Sbarra,
Sequentially Cohen-Macaulay modules and local cohomology, 2002):
M_(n-i-1)/M_(n-i) is zero or Cohen-Macaulay of dimension i and carries all
of H^i(R/I).  So row i is its Hilbert function minus its Hilbert polynomial
up to the sign (-1)^i, which in the basis above is (-1)^(i+n) times its
series numerator.  Each M_k is strongly stable, and its Eliahou-Kervaire
numerator (J. Algebra 129, 1990) is 1 minus one term t^deg(u) (1-t)^(m(u)-1)
per generator u, so a row comes from only the generators that change
between two links, counted by (degree, m(u)).  Each link down to M_1 is the
previous one projected, one set lookup per generator.

Any other monomial ideal takes Takayama's degree complexes.  For a in Z^n
let G = {j : a_j < 0}.  Takayama's formula (Bull. Math. Soc. Sci. Math.
Roumanie 48, 2005) gives dim H^i_m(R/I)_a = dim H~_(i-|G|-1)(Delta_a; Q),
where Delta_a is the complex of faces F of [n] - G such that every minimal
generator u has some j outside F and G with u_j > a_j; the entry vanishes
unless a_j < rho_j for every j outside G, rho_j being the largest exponent of
x_j among the generators.  Delta_a depends only on G and on the cell of a
off G, the box between consecutive generator exponents that holds it, so
each ideal reduces to finitely many cells, each of which scans every
generator.  The complexes have at most n vertices and their homology is
exact, by fraction-free elimination.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product
from operator import or_

from .errors import InternalInconsistency, InvalidArgument
from .hilbert import _expand_tally, _tally, dimension
from .ideals import MonomialIdeal, is_strongly_stable, projection
from .linalg import fraction_free_rank
from .ring import Frozen


class DegreeWindow(Frozen):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int) -> None:
        if lo > hi:
            raise InvalidArgument(f"empty degree window: lo {lo} exceeds hi {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_values", (lo, hi))

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)


def default_window(*ideals: MonomialIdeal) -> DegreeWindow:
    """Display window for the given quotients: the top is the highest degree
    where one of their rows is nonzero (at least 1), the bottom adds a fixed
    margin into the infinite negative tail."""
    n = ideals[0].ring.n
    hi = max([1] + [max(row) - n for ideal in ideals for row in _engine(ideal) if row])
    return DegreeWindow(-(hi + n + 2), hi)


# -- the row numerators -------------------------------------------------------


@lru_cache(maxsize=256)
def _engine(ideal: MonomialIdeal) -> tuple[dict[int, int], ...]:
    """Row numerators N_i of R/I in the module's basis, with zero
    coefficients left out."""
    if is_strongly_stable(ideal):
        return _herzog_sbarra_rows(ideal)
    return _takayama_rows(ideal)


def _herzog_sbarra_rows(ideal: MonomialIdeal) -> tuple[dict[int, int], ...]:
    """Row numerators of R/I for strongly stable I: row i is (-1)^(i+n) times
    EK(M_(n-i)) - EK(M_(n-i-1)), from the generators not in both.  The chain
    projects for k = n-1, ..., 1 only: M_0 is the unit ideal when I != 0 and
    the zero ideal when I = 0, and M_(-1) = R."""
    n = ideal.ring.n
    links = [ideal.gens]
    for k in range(n - 1, 0, -1):
        links.append(projection(links[-1], k))
    unit = {(0,) * n}
    links = [set(g) for g in links] + [unit if ideal.gens else set(), unit]  # G(M_(n-i))
    rows = []
    for i in range(n + 1):
        upper, lower = links[i], links[i + 1]
        if upper == lower:
            rows.append({})
            continue
        sign = (-1) ** (i + n)
        table = _tally({}, lower - upper, sign)
        rows.append(_expand_tally(_tally(table, upper - lower, -sign)))
    return tuple(rows)


# -- the degree-complex route --------------------------------------------------


@lru_cache(maxsize=4096)
def _reduced_homology(free: int, nonfaces: tuple[int, ...]) -> tuple[int, ...]:
    """dim H~_(k-1)(Delta; Q) for k = 0..|free|, where Delta is the simplicial
    complex on the vertex bit mask `free` with the given minimal non-faces."""
    layers: list[dict[int, int]] = [{} for _ in range(free.bit_count() + 1)]
    for face in _submasks(free):
        if not any(face & m == m for m in nonfaces):
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


def _takayama_rows(ideal: MonomialIdeal) -> tuple[dict[int, int], ...]:
    """Row numerators of R/I from Takayama's degree complexes, for any
    monomial ideal.

    The multidegrees a with negative entries on G, |G| = g, and bounded part
    b share Delta_a; together they add dim H~_(i-g-1)(Delta_a) times
    f_(g,|b|)(j) = C(|b| - j - 1, g - 1) to h^i (for g = 0, 1 when j = |b|).
    Pascal's rule f_(g,s) = f_(g+1,s+1) - f_(g+1,s) writes f_(g,|b|) as
    x^|b| (x - 1)^(n-g), x^k standing for C(k - j - 1, n - 1): a negative
    coordinate contributes 1 and a free one at value v contributes
    x^(v+1) - x^v.  Over a cell these terms telescope to x^hi - x^lo per free
    coordinate, so the cell adds its homology times the product of these
    binomials, whatever the size of its intervals."""
    n = ideal.ring.n
    gens = ideal.gens
    # Delta_a sees b only through the comparisons u_j > b_j, so each b_j runs
    # over the cells [cut, next cut) between the exponents of x_j; b_j >= rho_j,
    # the last cut, would make j a cone apex or the complex void
    cuts = [sorted({u[j] for u in gens} | {0}) for j in range(n)]
    # above[j][t]: per generator, the bit of j when its x_j exponent exceeds cut t
    above = [[[1 << j if u[j] > c else 0 for u in gens] for c in cuts[j]] for j in range(n)]
    zeros = [0] * len(gens)
    rows: list[dict[int, int]] = [{} for _ in range(n + 1)]
    # a free x_j dividing no generator has a single cut, hence no cell: the
    # free variables are those that divide a generator less a negative subset
    present = sum(1 << j for j in range(n) if len(cuts[j]) > 1)
    for negative in _submasks(present):
        free_mask = present ^ negative
        free = [j for j in range(n) if free_mask >> j & 1]
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
            terms = {0: 1}  # prod over the free coordinates of x^hi - x^lo
            for j, t in zip(free, cell):
                terms = _times_binomial(terms, cuts[j][t], cuts[j][t + 1])
            for k, h in enumerate(homology):
                if h:
                    row = rows[g + k]
                    for s, c in terms.items():
                        row[s] = row.get(s, 0) + h * c
    return tuple({k: c for k, c in sorted(row.items()) if c} for row in rows)


def _submasks(mask: int):
    """The submasks of `mask`, in increasing order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _times_binomial(terms: dict[int, int], lo: int, hi: int) -> dict[int, int]:
    """The polynomial {exponent: coefficient} times x^hi - x^lo."""
    out: dict[int, int] = {}
    for s, c in terms.items():
        out[s + hi] = out.get(s + hi, 0) + c
        out[s + lo] = out.get(s + lo, 0) - c
    return out


# -- local cohomology tables --------------------------------------------------


class LCTable(Frozen):
    """Graded dimensions h^i(R/I)_j on a finite degree window (zeros omitted).
    Equal by value; the entries are a dict, so a table has no hash."""

    __slots__ = ("nvars", "window", "entries")

    def __init__(self, nvars: int, window: DegreeWindow, entries: dict) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "entries", entries)  # (i, j) -> positive dimension
        object.__setattr__(self, "_values", (nvars, window, entries))

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
    """h^i(R/I)_j for 0 <= i <= n and j in the window: n running sums over
    each row's reflected numerator, inline, read the row from its top down
    to the window's bottom.  The row is sized before it is filled, so a span
    no list holds fails at once."""
    window = window or default_window(ideal)
    n = ideal.ring.n
    entries: dict[tuple[int, int], int] = {}
    for i, numerator in enumerate(_engine(ideal)):
        if not numerator:
            continue
        last = max(numerator)
        reflected = [0] * (last - min(numerator) + 1)
        for k, c in numerator.items():
            reflected[last - k] = c
        top, size, sums = last - n, len(reflected), [0] * n
        for d in range(top - window.lo + 1):  # degree top - d, down to the window's bottom
            value = reflected[d] if d < size else 0
            for t in range(n):
                value = sums[t] = sums[t] + value
            if value and top - d <= window.hi:
                entries[(i, top - d)] = value
    return LCTable(n, window, entries)


def equal_rows(a: MonomialIdeal, b: MonomialIdeal) -> tuple[bool, ...]:
    """Per cohomological index i, whether h^i(R/a) and h^i(R/b) agree in every
    degree, which holds exactly when the row numerators are equal.  Equal
    ideals have equal rows, so they are compared by value and no row is
    built; this settles a member that is its own lex ideal or its own gin.
    `verify_main` reads both of its conditions from the lowest unequal row
    that `tables_agree` takes from here."""
    if a.ring.n != b.ring.n:
        raise ValueError("tables of different rings")
    if a == b:
        return (True,) * (a.ring.n + 1)
    return tuple(ra == rb for ra, rb in zip(_engine(a), _engine(b)))


def tables_agree(a: MonomialIdeal, b: MonomialIdeal) -> tuple[int, int] | None:
    """None when R/a and R/b have the same local cohomology in every degree.
    Otherwise (i, j): i is the lowest row that differs and j the top degree
    where it does, the top of the largest k whose numerator coefficients
    differ."""
    equal = equal_rows(a, b)
    if all(equal):
        return None
    i = equal.index(False)
    ra, rb = _engine(a)[i], _engine(b)[i]
    return i, max(k for k in ra.keys() | rb.keys() if ra.get(k) != rb.get(k)) - a.ring.n


# -- derived invariants -------------------------------------------------------


def depth_and_dim(ideal: MonomialIdeal) -> tuple[int, int]:
    """(depth, dim) of R/I; the depth is the lowest nonzero row."""
    if ideal.is_unit:
        raise ValueError("depth of the zero module is not defined here")
    dim = dimension(ideal)
    depth = next((i for i, numerator in enumerate(_engine(ideal)) if numerator), None)
    if depth is None:
        raise InternalInconsistency(f"no nonvanishing cohomology found for {ideal}")
    if is_strongly_stable(ideal):
        pd = max((max(t for t, e in enumerate(g) if e) + 1 for g in ideal.gens), default=0)
        if depth != ideal.ring.n - pd:
            raise InternalInconsistency(
                f"depth {depth} contradicts the last-variable criterion on {ideal}")
    return depth, dim
