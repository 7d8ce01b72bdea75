"""Monomial ideals by minimal generators; colon, saturation and Borel-fixedness.

A strongly stable ideal is saturated by projection (its last variable set
to 1), any other monomial ideal by one colon.  `projection` returns minimal
generators by one set lookup per projected monomial, with no divisibility
index.  The library's own strongly stable constructions (lex ideals, family
members, these projections) go through `MonomialIdeal._strongly_stable`,
which takes their generators as minimal and pre-sets the stability they have
by construction, so neither minimalization nor the stability witness runs
on them; this module is the only one that names that attribute."""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from operator import or_

from .ring import (Exp, Frozen, RingSpec, adjacent_moves, monomial_colon, monomial_lcm,
                   monomial_mul, total_degree)


def _divisor_index(gens) -> list[tuple[int, list[int], list[int]]]:
    """Per variable x_i dividing some generator: i, the distinct exponents e of
    x_i among gens, ascending, and for each e the bitmask of the gens (bit k
    for gens[k]) whose x_i exponent is <= e.  A variable dividing no generator
    is left out: it cannot stop any generator from dividing anything."""
    index = []
    for i, column in enumerate(zip(*gens)):
        if not any(column):
            continue
        exact: dict[int, int] = {}
        for k, e in enumerate(column):
            exact[e] = exact.get(e, 0) | 1 << k
        values = sorted(exact)
        index.append((i, values, list(accumulate((exact[e] for e in values), or_))))
    return index


def _divisors(index, u: Exp) -> int:
    """The bitmask of the indexed gens dividing u, one AND per indexed
    variable; -1 (every bit) when no variable is indexed."""
    found = -1
    for i, values, masks in index:
        k = bisect_right(values, u[i])
        if not k:
            return 0
        found &= masks[k - 1]
    return found


def _membership(gens: tuple[Exp, ...]):
    """u -> whether u lies in the ideal generated by gens."""
    if not gens:
        return lambda u: False
    index = _divisor_index(gens)
    return lambda u: _divisors(index, u) != 0


def minimal_generators(gens) -> tuple[Exp, ...]:
    """Drop generators divisible by another; result sorted lex-descending.

    u is kept when it is the only input dividing itself.  Indexing every
    input, not only the minimal ones, gives the same answer: a divisor that
    is not minimal is itself divided by a minimal one, which then divides u.
    """
    unique = sorted(set(gens), reverse=True)
    if len(unique) < 2:
        return tuple(unique)
    index = _divisor_index(unique)
    return tuple(u for k, u in enumerate(unique) if _divisors(index, u) == 1 << k)


class MonomialIdeal(Frozen):
    """A monomial ideal, canonically stored by its minimal generators.

    The empty generating set is the zero ideal; {1} is the unit ideal.
    Construction validates and minimalizes, so eq and hash compare the
    `_values` (ring, gens); only `_strongly_stable` skips both, for
    generators already minimal, and it alone pre-sets the ideal strongly
    stable.  The fields live in the instance dict, next to the cached
    properties.
    """

    def __init__(self, ring: RingSpec, gens: tuple[Exp, ...] = ()) -> None:
        gens = tuple(gens)  # any iterable, read once
        for u in gens:
            if len(u) != ring.n or any(type(e) is not int or e < 0 for e in u):
                raise ValueError(f"bad exponent vector {u!r} for n={ring.n}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", minimal_generators(gens))
        object.__setattr__(self, "_values", (ring, self.gens))

    @classmethod
    def _strongly_stable(cls, ring: RingSpec, gens) -> MonomialIdeal:
        """The ideal of `gens`, which must be the minimal generators of a
        strongly stable ideal, in any order.  They are only sorted into the
        canonical lex-descending order: no validation, no minimalization,
        and `_stable` is set to True, so the witness never runs on it."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "ring", ring)
        object.__setattr__(ideal, "gens", tuple(sorted(gens, reverse=True)))
        object.__setattr__(ideal, "_values", (ring, ideal.gens))
        object.__setattr__(ideal, "_stable", True)
        return ideal

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and not any(self.gens[-1])

    @cached_property
    def _member(self):
        # kept outside eq and hash; only `contains` builds it, so memoised
        # ideals that are never queried keep no index
        return _membership(self.gens)

    @cached_property
    def _stable(self) -> bool:
        # outside eq and hash, like `_member`: one witness run per instance
        return strong_stability_witness(self) is None

    def contains(self, u: Exp) -> bool:
        return self._member(u)

    def max_generator_degree(self) -> int:
        return max(map(sum, self.gens), default=0)

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.ring!r}, {self.gens!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(self.ring.monomial_str(g) for g in self.gens) + ")"


def maximal_ideal(ring: RingSpec) -> MonomialIdeal:
    return MonomialIdeal(ring, tuple(ring.variables()))


def colon_by_monomial(ideal: MonomialIdeal, v: Exp) -> MonomialIdeal:
    return MonomialIdeal(ideal.ring, tuple(monomial_colon(g, v) for g in ideal.gens))


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.is_zero or b.is_zero:
        return MonomialIdeal(a.ring)
    gens = tuple(monomial_lcm(u, v) for u in a.gens for v in b.gens)
    return MonomialIdeal(a.ring, gens)


def colon(ideal: MonomialIdeal, other: MonomialIdeal) -> MonomialIdeal:
    """ideal : other: the pieces ideal : v over the generators v of `other`,
    lex-smallest first, intersected.  A piece that already holds the running
    intersection R (u*v in ideal for every generator u of R) is not built."""
    if ideal.ring != other.ring:
        raise ValueError("colon of ideals over different rings")
    if other.is_zero:
        raise ValueError("colon by the zero ideal is undefined")
    member = _membership(ideal.gens)
    result = None
    for v in reversed(other.gens):
        if result is not None and all(member(monomial_mul(u, v)) for u in result.gens):
            continue
        piece = colon_by_monomial(ideal, v)
        result = piece if result is None else intersect(result, piece)
    return result


def projection(gens, k: int) -> tuple[Exp, ...]:
    """The minimal generators of M_k, the ideal of `gens` with x_(k+1), ...,
    x_n set to 1, in the order of `gens`.  `gens` must be the minimal
    generators of a strongly stable ideal I; M_(n-1) is its saturation
    (Bayer-Stillman, Invent. Math. 87, 1987).

    Let P be the projected monomials and m(v) the last variable of v.  M_k is
    strongly stable, so v in P is not minimal exactly when v / x_m(v) is in
    M_k (move the extra factor onto x_m(v)), and then v / x_m(v) is in P, so
    one lookup decides v.  For if v / x_m(v) is in M_k, then
    w = (v / x_m(v)) * x_(k+1)^e is in I for some e, by moving the tail
    variables to x_(k+1).  Its Eliahou-Kervaire decomposition g * z has g in
    G(I) a prefix of the sorted word of w.  g is not a prefix of v / x_m(v)
    alone: it would strictly divide the generator that v came from.  So
    g = (v / x_m(v)) * x_(k+1)^e' with e' >= 1, and g projects to
    v / x_m(v).  The unit has no last variable and keeps itself.

    P is keyed by the cut exponents u[:k], and only the kept ones are padded
    back to n entries with zeros."""
    if not gens:
        return ()
    pad = (0,) * (len(gens[0]) - k)
    projected = dict.fromkeys(u[:k] for u in gens)  # P cut to x_1..x_k, in input order
    kept = []
    for v in projected:
        m = k - 1
        while m >= 0 and not v[m]:
            m -= 1
        if m < 0 or v[:m] + (v[m] - 1,) + v[m + 1:] not in projected:
            kept.append(v + pad)
    return tuple(kept)


def saturate(ideal: MonomialIdeal) -> MonomialIdeal:
    """The saturation I : m^inf.

    A strongly stable I is saturated by setting x_n to 1, which gives
    I : x_n^inf: if u*x_n^e is in I, moving x_n^e onto any x_k stays in I,
    so I : x_n^inf lies in every I : x_k^inf and is I : m^inf; `projection`
    gives its minimal generators with no minimalization pass.  Any other I
    takes the colon by (x_1^rho_1, ..., x_n^rho_n),
    with rho_k the largest exponent of x_k among the generators, so that
    I : x_k^rho_k is already I : x_k^inf.  Each rho_k is at least 1, since
    x_k^0 = 1 would make the powers the unit ideal.
    """
    if ideal.is_zero or ideal.is_unit:
        return ideal
    if is_strongly_stable(ideal):
        return MonomialIdeal._strongly_stable(ideal.ring, projection(ideal.gens, ideal.ring.n - 1))
    rho = [max(1, *column) for column in zip(*ideal.gens)]
    powers = tuple(tuple(e * x for x in var) for e, var in zip(rho, ideal.ring.variables()))
    return colon(ideal, MonomialIdeal(ideal.ring, powers))


def strong_stability_witness(ideal: MonomialIdeal):
    """None when the ideal is strongly stable, else a failing (u, j - 1, j) move.

    Adjacent moves of the minimal generators suffice: a product inherits
    every move from its generator factor (or the generator divides the
    moved product), and every move is a chain of adjacent ones.
    """
    member = _membership(ideal.gens)
    for u in ideal.gens:
        for j, v in adjacent_moves(u):
            if not member(v):
                return (u, j - 1, j)
    return None


def is_strongly_stable(ideal: MonomialIdeal) -> bool:
    """Memoised on the instance: local cohomology, gin and depth each ask.
    An ideal built by `MonomialIdeal._strongly_stable` is stable by
    construction; any other runs the witness on its first query."""
    return ideal._stable


def graded_generator_counts(ideal: MonomialIdeal) -> dict[int, int]:
    counts: dict[int, int] = {}
    for g in ideal.gens:
        d = total_degree(g)
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))
