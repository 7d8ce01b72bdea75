"""Degreewise enumeration of strongly stable ideals with prescribed Hilbert data."""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from math import comb

from .errors import InvalidArgument, MacaulayViolation
from .gotzmann import lex_ideal_from_values, lex_top_degree
from .hilbert import eliahou_kervaire, hilbert_numerator, values_from_numerator
from .ideals import MonomialIdeal
from .ring import Exp, Frozen, RingSpec, adjacent_moves, enumerate_monomials, monomial_mul


class FamilySpec(Frozen):
    """A family target: Hilbert function values (window) or a source ideal,
    plus the largest degree where generators may appear."""

    __slots__ = ("ring", "target", "max_degree")

    def __init__(self, ring: RingSpec, target: tuple[int, ...] | MonomialIdeal,
                 max_degree: int) -> None:
        if max_degree < 0:
            raise InvalidArgument(f"max_degree must be at least 0, got {max_degree}")
        super().__init__(ring, target, max_degree)


def borel_filters(n: int, d: int, forced: frozenset[Exp],
                  size: int | None = None) -> Iterator[frozenset[Exp]]:
    """All Borel-closed subsets of the degree-d monomials containing `forced`
    (and of the exact cardinality, when given), each exactly once.

    A depth-first walk over the monomials, taking each one before leaving it
    out; `taken` is its stack of choices, so no call nests per monomial."""
    monos = enumerate_monomials(n, d)  # lex-descending: successors come first
    succ = {u: [v for _, v in adjacent_moves(u)] for u in monos}
    chosen: set[Exp] = set()
    taken: list[bool] = []   # taken[k]: whether monos[k] is in `chosen`
    while True:
        idx = len(taken)
        if size is None or len(chosen) <= size <= len(chosen) + len(monos) - idx:
            if idx == len(monos):
                yield frozenset(chosen)
            elif all(s in chosen for s in succ[monos[idx]]):
                chosen.add(monos[idx])
                taken.append(True)
                continue
            elif monos[idx] not in forced:
                taken.append(False)
                continue
        # backtrack to the last monomial taken that may still be left out
        while taken and not (taken[-1] and monos[len(taken) - 1] not in forced):
            if taken.pop():
                chosen.discard(monos[len(taken)])
        if not taken:
            return
        chosen.discard(monos[len(taken) - 1])
        taken[-1] = False


def _shadow(ring: RingSpec, layer: frozenset[Exp]) -> frozenset[Exp]:
    variables = ring.variables()
    return frozenset(monomial_mul(u, v) for u in layer for v in variables)


def _strongly_stable(ring: RingSpec, max_degree: int,
                     values: list[int] | None = None) -> Iterator[MonomialIdeal]:
    """Every strongly stable ideal with minimal generators in degrees <= max_degree;
    with `values`, only those with dim (R/I)_d = values[d] for every d <= max_degree.

    Depth first, degree by degree: stack[d] yields the choices of the
    degree-d layer, so no call nests per degree.  A layer minus the shadow
    of the layer below is that degree's minimal generators, and the layers
    are Borel-closed, so each member is built as known strongly stable."""
    n = ring.n

    def layers(d: int, prev: frozenset[Exp], gens: tuple[Exp, ...]
               ) -> Iterator[tuple[frozenset[Exp], tuple[Exp, ...]]]:
        shadow = _shadow(ring, prev)
        size = None if values is None else comb(d + n - 1, n - 1) - values[d]
        if size is None or size >= len(shadow):
            for layer in borel_filters(n, d, shadow, size):
                yield layer, gens + tuple(sorted(layer - shadow))

    stack = [iter([(frozenset(), ())])]   # degree 0: no monomial
    while stack:
        for layer, gens in stack[-1]:
            if len(stack) > max_degree:
                yield MonomialIdeal._strongly_stable(ring, gens)
            else:
                stack.append(layers(len(stack), layer, gens))
                break
        else:
            stack.pop()


def enumerate_strongly_stable(spec: FamilySpec) -> Iterator[MonomialIdeal]:
    """Every strongly stable ideal with the target's Hilbert function (on the
    values' window, for a value target) and generators in degrees <= max_degree.

    No member has a generator above T, the lex ideal's top degree (Macaulay),
    so the layers stop at min(max_degree, T).  An ideal target reads T from
    its numerator N (`lex_top_degree`) and keeps the members with numerator
    N; a value target reads T from its lex ideal, its Macaulay check."""
    ring, target = spec.ring, spec.target
    n = ring.n
    if isinstance(target, MonomialIdeal):
        if target.is_unit:
            raise MacaulayViolation("target leaves no room for a proper ideal")
        want = hilbert_numerator(target)
        top = min(spec.max_degree, lex_top_degree(want, n))
        values = values_from_numerator(want, n, top)
        key = tuple   # the member's numerator as it is
    else:
        want = values = list(target)
        if len(values) <= spec.max_degree:
            raise MacaulayViolation("target values must cover degrees up to max_degree")
        top = min(spec.max_degree, lex_ideal_from_values(ring, values).max_generator_degree())
        key = partial(values_from_numerator, n=n, upto=len(values) - 1)
    members = _strongly_stable(ring, top, values)
    yield from (m for m in members if key(eliahou_kervaire(m.gens)) == want)


def all_strongly_stable(ring: RingSpec, max_degree: int) -> Iterator[MonomialIdeal]:
    """Every strongly stable ideal with minimal generators in degrees <= max_degree."""
    yield from _strongly_stable(ring, max_degree)
