"""Monomial ideals by minimal generators; colon (saturation is one) and Borel-fixedness."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ring import (Exp, RingSpec, adjacent_moves, monomial_colon, monomial_divides,
                   monomial_lcm, monomial_mul, total_degree)


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
    """ideal : other: the pieces ideal : v over the generators v of `other`,
    lex-smallest first, intersected.  A piece that already holds the running
    intersection R (u*v in ideal for every generator u of R) is not built."""
    if ideal.ring != other.ring:
        raise ValueError("colon of ideals over different rings")
    if other.is_zero:
        raise ValueError("colon by the zero ideal is undefined")
    result = None
    for v in reversed(other.gens):
        if result is not None and all(ideal.contains(monomial_mul(u, v)) for u in result.gens):
            continue
        piece = colon_by_monomial(ideal, v)
        result = piece if result is None else intersect(result, piece)
    return result


def saturate(ideal: MonomialIdeal) -> MonomialIdeal:
    """The saturation I : m^inf, as the colon by (x_1^rho_1, ..., x_n^rho_n).

    With rho_k the largest exponent of x_k among the generators, I : x_k^rho_k
    is already I : x_k^inf.  Each rho_k is at least 1, since x_k^0 = 1 would
    make the powers the unit ideal.  On Borel-fixed input `colon` builds one
    piece: if u*x_n^e is in I, moving x_n^e onto any x_k stays in I, so the
    last variable's piece lies in every other one and the rest are skipped.
    """
    if ideal.is_zero or ideal.is_unit:
        return ideal
    rho = [max(1, *column) for column in zip(*ideal.gens)]
    powers = tuple(tuple(e * x for x in var) for e, var in zip(rho, ideal.ring.variables()))
    return colon(ideal, MonomialIdeal(ideal.ring, powers))


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
