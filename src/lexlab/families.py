"""Degreewise enumeration of strongly stable ideals with prescribed Hilbert data."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Union

from .errors import MacaulayViolation
from .gotzmann import lex_ideal_from_values
from .hilbert import hilbert_numerator, values_from_numerator
from .ideals import MonomialIdeal
from .ring import Exp, RingSpec, adjacent_moves, enumerate_monomials, monomial_mul


@dataclass(frozen=True)
class FamilySpec:
    """A family target: Hilbert function values (window) or a source ideal,
    plus the largest degree where generators may appear."""

    ring: RingSpec
    target: Union[tuple[int, ...], MonomialIdeal]
    max_degree: int

    def __post_init__(self) -> None:
        if self.max_degree < 0:
            raise ValueError(f"max_degree must be at least 0, got {self.max_degree}")


def _target_values(spec: FamilySpec) -> list[int]:
    n = spec.ring.n
    if isinstance(spec.target, MonomialIdeal):
        upto = spec.max_degree + n + 2
        return values_from_numerator(hilbert_numerator(spec.target), n, upto)
    values = list(spec.target)
    if len(values) <= spec.max_degree:
        raise MacaulayViolation("target values must cover degrees up to max_degree")
    lex_ideal_from_values(spec.ring, values)
    return values


def borel_filters(n: int, d: int, forced: frozenset[Exp],
                  size: int | None = None) -> Iterator[frozenset[Exp]]:
    """All Borel-closed subsets of the degree-d monomials containing `forced`
    (and of the exact cardinality, when given), each exactly once."""
    monos = enumerate_monomials(n, d)  # lex-descending: successors come first
    succ = {u: [v for _, v in adjacent_moves(u)] for u in monos}

    def rec(idx: int, chosen: set[Exp]) -> Iterator[frozenset[Exp]]:
        if size is not None:
            if len(chosen) > size or len(chosen) + (len(monos) - idx) < size:
                return
        if idx == len(monos):
            if size is None or len(chosen) == size:
                yield frozenset(chosen)
            return
        u = monos[idx]
        if all(s in chosen for s in succ[u]):
            chosen.add(u)
            yield from rec(idx + 1, chosen)
            chosen.discard(u)
        if u not in forced:
            yield from rec(idx + 1, chosen)

    yield from rec(0, set())


def _shadow(ring: RingSpec, layer: frozenset[Exp]) -> frozenset[Exp]:
    return frozenset(monomial_mul(u, v) for u in layer for v in ring.variables())


def _strongly_stable(ring: RingSpec, max_degree: int,
                     required: list[int] | None = None) -> Iterator[MonomialIdeal]:
    """Every strongly stable ideal with minimal generators in degrees <= max_degree;
    with `required`, only those with dim I_d = required[d] for every listed d."""
    n = ring.n
    top = max_degree if required is None else len(required) - 1

    def rec(d: int, prev: frozenset[Exp], gens: tuple[Exp, ...]) -> Iterator[MonomialIdeal]:
        if d > top:
            yield MonomialIdeal(ring, gens)
            return
        shadow = _shadow(ring, prev)
        size = None if required is None else required[d]
        if d > max_degree:
            if len(shadow) == size:
                yield from rec(d + 1, shadow, gens)
        elif size is None or size >= len(shadow):
            for layer in borel_filters(n, d, shadow, size):
                yield from rec(d + 1, layer, gens + tuple(sorted(layer - shadow)))

    return rec(1, frozenset(), ())


def enumerate_strongly_stable(spec: FamilySpec) -> Iterator[MonomialIdeal]:
    """Every strongly stable ideal matching the target values on their window,
    with minimal generators only in degrees <= max_degree."""
    n = spec.ring.n
    values = _target_values(spec)
    required = [comb(d + n - 1, n - 1) - values[d] for d in range(len(values))]
    if required[0] != 0:
        raise MacaulayViolation("target leaves no room for a proper ideal")
    yield from _strongly_stable(spec.ring, spec.max_degree, required)


def all_strongly_stable(ring: RingSpec, max_degree: int) -> Iterator[MonomialIdeal]:
    """Every strongly stable ideal with minimal generators in degrees <= max_degree."""
    yield from _strongly_stable(ring, max_degree)
