"""Monomial ideals by minimal generators; colon, saturation and Borel-fixedness."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ring import (Exp, RingSpec, adjacent_moves, monomial_colon, monomial_divides,
                   monomial_lcm, total_degree)


def minimal_generators(gens) -> tuple[Exp, ...]:
    """Drop generators divisible by another; result sorted lex-descending."""
    kept: list[Exp] = []
    for u in sorted(set(gens), key=lambda u: (sum(u), u)):
        if not any(monomial_divides(g, u) for g in kept):
            kept.append(u)
    kept.sort(reverse=True)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, canonically stored by its minimal generators.

    The empty generating set is the zero ideal; {1} is the unit ideal.
    Construction minimalizes, so equality is plain field equality.
    """

    ring: RingSpec
    gens: tuple[Exp, ...] = ()

    def __post_init__(self) -> None:
        for u in self.gens:
            if len(u) != self.ring.n or any(e < 0 for e in u):
                raise ValueError(f"bad exponent vector {u!r} for n={self.ring.n}")
        object.__setattr__(self, "gens", minimal_generators(self.gens))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and not any(self.gens[-1])

    def contains(self, u: Exp) -> bool:
        return any(monomial_divides(g, u) for g in self.gens)

    def max_generator_degree(self) -> int:
        return max((total_degree(g) for g in self.gens), default=0)

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
    """ideal : other, intersecting the colons by each generator of `other`."""
    if ideal.ring != other.ring:
        raise ValueError("colon of ideals over different rings")
    if other.is_zero:
        raise ValueError("colon by the zero ideal is undefined")
    result = None
    for v in other.gens:
        piece = colon_by_monomial(ideal, v)
        result = piece if result is None else intersect(result, piece)
    return result


def saturate(ideal: MonomialIdeal) -> MonomialIdeal:
    """The saturation I : m^inf with respect to the maximal ideal m.

    For a monomial ideal, I^sat is the intersection over k of I : x_k^inf,
    and I : x_k^inf = I : x_k^rho_k, with rho_k the largest exponent of x_k
    among the generators: x_k dropped from every generator.  The last
    variable comes first, since on Borel-fixed input its piece is already
    the answer and the later intersections stay small.
    """
    if ideal.is_zero or ideal.is_unit:
        return ideal
    n = ideal.ring.n
    result = None
    for k in range(n - 1, -1, -1):
        rho = max(g[k] for g in ideal.gens)
        piece = colon_by_monomial(ideal, tuple(rho if t == k else 0 for t in range(n)))
        result = piece if result is None else intersect(result, piece)
    return result


def strong_stability_witness(ideal: MonomialIdeal):
    """None when the ideal is strongly stable, else a failing (u, j - 1, j) move.

    Adjacent moves of the minimal generators suffice: a product inherits
    every move from its generator factor (or the generator divides the
    moved product), and every move is a chain of adjacent ones.  A generator
    dividing the moved v = x_(j-1) u / x_j has the x_(j-1) exponent of v, or
    it would divide u / x_j, so only generators with that exponent are tried.
    """
    with_exponent: dict[tuple[int, int], list[Exp]] = {}
    for g in ideal.gens:
        for t, e in enumerate(g):
            with_exponent.setdefault((t, e), []).append(g)
    for u in ideal.gens:
        for j, v in adjacent_moves(u):
            if not any(monomial_divides(g, v) for g in with_exponent.get((j - 1, v[j - 1]), ())):
                return (u, j - 1, j)
    return None


@lru_cache(maxsize=4096)
def is_strongly_stable(ideal: MonomialIdeal) -> bool:
    """Memoised by value: local cohomology, gin and depth each ask."""
    return strong_stability_witness(ideal) is None


def graded_generator_counts(ideal: MonomialIdeal) -> dict[int, int]:
    counts: dict[int, int] = {}
    for g in ideal.gens:
        d = total_degree(g)
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items()))
