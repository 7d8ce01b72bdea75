"""Degreewise enumeration of strongly stable ideals with prescribed Hilbert data."""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial, reduce
from itertools import compress
from operator import or_

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


def _filter_masks(succ: list[int], forced: int, size: int | None) -> Iterator[int]:
    """The Borel-closed subsets of one degree as bitmasks over its lex-descending
    monomials: bit k may be set only when every bit of succ[k] (its adjacent
    Borel successors, all below k) is.  A depth-first walk that takes each
    monomial before leaving it out: `chosen` holds the choices below `idx`,
    and a backtrack returns to the highest taken bit outside `forced`."""
    m, idx, chosen, count = len(succ), 0, 0, 0
    while True:
        if size is None or count <= size <= count + m - idx:
            if idx == m:
                yield chosen
            elif not succ[idx] & ~chosen:
                chosen |= 1 << idx
                idx, count = idx + 1, count + 1
                continue
            elif not forced >> idx & 1:
                idx += 1
                continue
        free = chosen & ~forced
        if not free:
            return
        k = free.bit_length() - 1   # leave monos[k] out, drop the choices above it
        chosen &= (1 << k) - 1
        idx, count = k + 1, chosen.bit_count()


def _at_bits(items, mask: int) -> list:
    """items[k] for every set bit k of mask, k ascending; a list, as tuple() of
    an iterator unbalances the tuple free lists, megabytes over a long walk."""
    return list(compress(items, map("1".__eq__, bin(mask)[:1:-1])))


def _degree_table(ring: RingSpec, d: int) -> tuple[tuple[Exp, ...], list[int], list[int]]:
    """The degree-d monomials, lex-descending, with bit k for the k-th; the
    mask of each one's adjacent Borel successors; and up[k], the mask of
    the n multiples of the k-th monomial of degree d - 1."""
    monos = enumerate_monomials(ring.n, d)
    bit = {u: 1 << k for k, u in enumerate(monos)}
    lower = enumerate_monomials(ring.n, d - 1) if d else ()
    return (monos, [sum(bit[v] for _, v in adjacent_moves(u)) for u in monos],
            [sum(bit[monomial_mul(u, x)] for x in ring.variables()) for u in lower])


def borel_filters(n: int, d: int, forced: frozenset[Exp],
                  size: int | None = None) -> Iterator[frozenset[Exp]]:
    """All Borel-closed subsets of the degree-d monomials containing `forced`
    (and of the exact cardinality, when given), each exactly once, in the
    order of a walk that takes each monomial before leaving it out.  A forced
    monomial that is not of degree d in n variables is an InvalidArgument."""
    monos, succ, _ = _degree_table(RingSpec(n), d)
    stray = sorted(forced.difference(monos))
    if stray:
        raise InvalidArgument(f"forced monomials {stray} are not of degree {d} in {n} variables")
    for mask in _filter_masks(succ, sum(1 << k for k, u in enumerate(monos) if u in forced), size):
        yield frozenset(_at_bits(monos, mask))


def _strongly_stable(ring: RingSpec, max_degree: int,
                     values: list[int] | None = None) -> Iterator[MonomialIdeal]:
    """Every strongly stable ideal with minimal generators in degrees <= max_degree;
    with `values`, only those with dim (R/I)_d = values[d] for every d <= max_degree.

    Depth first, degree by degree: stack[d] yields the choices of the
    degree-d layer as a bitmask, so no call nests per degree.  The shadow
    of the layer below is the OR of its monomials' multiples; the layer
    minus it is that degree's minimal generators, and the layers are
    Borel-closed, so each member is built as known strongly stable."""
    tables = [_degree_table(ring, d) for d in range(max_degree + 1)]

    def layers(d: int, prev: int, gens: list[Exp]) -> Iterator[tuple[int, list[Exp]]]:
        monos, succ, up = tables[d]
        shadow = reduce(or_, _at_bits(up, prev), 0)
        size = None if values is None else len(monos) - values[d]
        if size is None or size >= shadow.bit_count():
            for layer in _filter_masks(succ, shadow, size):
                yield layer, gens + _at_bits(monos, layer & ~shadow)

    stack = [iter([(0, [])])]   # degree 0: no monomial
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
