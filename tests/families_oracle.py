"""Oracle for the degreewise walk of ``lexlab.families``.

The library walks each degree's Borel-closed layers as bitmasks over the
lex-descending monomials and takes a layer's shadow as the OR of its
monomials' multiples.  This is the walk it replaced, kept unchanged: each
layer is a frozenset of exponent vectors, grown by a depth-first search
over set membership, and the shadow of a layer is the set of its products
with the variables.  Both take each monomial before leaving it out, so
they give the same members in the same order.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb

from lexlab.ideals import MonomialIdeal
from lexlab.ring import Exp, RingSpec, adjacent_moves, enumerate_monomials, monomial_mul


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
