"""Colon, saturation and strong-stability routes kept as oracles for ``lexlab.ideals``.

The library saturates a strongly stable ideal by setting its last variable
to 1, and any other monomial ideal by one colon, by the powers x_k^rho_k of
the variables; it tests strong stability by adjacent moves only.  Kept
here: the one colon by the variable powers for every input, the library's
route before the projection; iterated colon by the maximal ideal until the
ideal stops growing; the last-variable rule restated on its own; and every
move x_i * u / x_j with i < j on every minimal generator.  The colon routes
lean on the library's `colon` and the last-variable rule on
Borel-fixedness, so two definition routes that share no code with `colon`
and `saturate` sit next to them: membership of each divisor of lcm(G(I)),
tested by multiplying.

The library minimalizes and tests membership through one bitset index of
the generators' exponents.  The routes it replaced stay here: every
generator, by degree, checked against each one kept before it, and
membership as a scan for a generator dividing the monomial.

The library's `projection` of a strongly stable ideal keeps a projected
monomial v unless v divided by its last variable is projected too.  The
route it replaced stays here: set the variables to 1, then minimalize.
"""

from itertools import product

from helpers import all_exponents, divides

from lexlab.errors import InternalInconsistency
from lexlab.ideals import MonomialIdeal, colon, maximal_ideal, minimal_generators
from lexlab.ring import borel_move, monomial_divides


def _minimal_generators_pairwise(gens):
    """Drop generators divisible by another; result sorted lex-descending."""
    kept = []
    for u in sorted(set(gens), key=lambda u: (sum(u), u)):
        if not any(monomial_divides(g, u) for g in kept):
            kept.append(u)
    kept.sort(reverse=True)
    return tuple(kept)


def _projection_then_minimalize(gens, k):
    """Minimal generators of gens with x_(k+1), ..., x_n set to 1, by the
    general minimalization, for any monomial generators."""
    return minimal_generators(tuple(u[:k] + (0,) * (len(u) - k) for u in gens))


def _contains_any_scan(ideal: MonomialIdeal, u) -> bool:
    return any(monomial_divides(g, u) for g in ideal.gens)


def _top_exponents(ideal: MonomialIdeal) -> list[int]:
    return [max((g[k] for g in ideal.gens), default=0) for k in range(ideal.ring.n)]


def _divisor_members(ideal: MonomialIdeal, member) -> MonomialIdeal:
    # the minimal generators of I : J and of I^sat divide lcm(G(I)), so the
    # divisors of that lcm that pass `member` generate the ideal
    divisors = product(*(range(e + 1) for e in _top_exponents(ideal)))
    return MonomialIdeal(ideal.ring, tuple(u for u in divisors if member(u)))


def _times_in(ideal: MonomialIdeal, u, multipliers) -> bool:
    return all(any(divides(g, tuple(a + b for a, b in zip(u, v))) for g in ideal.gens)
               for v in multipliers)


def _colon_by_definition(ideal: MonomialIdeal, other: MonomialIdeal) -> MonomialIdeal:
    """I : J: u is in it exactly when u*v is in I for every generator v of J."""
    return _divisor_members(ideal, lambda u: _times_in(ideal, u, other.gens))


def _saturate_by_definition(ideal: MonomialIdeal) -> MonomialIdeal:
    """I^sat = I : m^t with t = sum_k (max(rho_k, 1) - 1) + 1, rho_k the largest
    exponent of x_k among the generators: every monomial of degree t is
    divisible by some x_k^max(rho_k, 1), and I : x_k^rho_k = I : x_k^inf.
    A u in I passes with every w, so it is let through untried."""
    t = sum(max(rho, 1) - 1 for rho in _top_exponents(ideal)) + 1
    words = all_exponents(ideal.ring.n, t)
    one = [(0,) * ideal.ring.n]
    return _divisor_members(
        ideal, lambda u: _times_in(ideal, u, one) or _times_in(ideal, u, words))


def _saturate_by_powers(ideal: MonomialIdeal) -> MonomialIdeal:
    """I : (x_1^rho_1, ..., x_n^rho_n), each rho_k the largest exponent of x_k
    among the generators but at least 1, for every input."""
    if ideal.is_zero or ideal.is_unit:
        return ideal
    rho = [max(1, *column) for column in zip(*ideal.gens)]
    powers = tuple(tuple(e * x for x in var) for e, var in zip(rho, ideal.ring.variables()))
    return colon(ideal, MonomialIdeal(ideal.ring, powers))


def _saturate_by_colon(ideal: MonomialIdeal) -> MonomialIdeal:
    m = maximal_ideal(ideal.ring)
    cap = 10 * ideal.max_generator_degree() + 10
    current = ideal
    for _ in range(cap):
        nxt = colon(current, m)
        if nxt == current:
            return current
        current = nxt
    raise InternalInconsistency("saturation did not stabilize within the iteration cap")


def _saturate_stable(ideal: MonomialIdeal) -> MonomialIdeal:
    # for Borel-fixed ideals, saturating = setting the last variable to 1
    gens = tuple(g[:-1] + (0,) for g in ideal.gens)
    return MonomialIdeal(ideal.ring, gens)


def _strong_stability_witness_all_pairs(ideal: MonomialIdeal):
    """None when the ideal is strongly stable, else a failing (u, i, j) move,
    trying every pair i < j on every minimal generator."""
    for u in ideal.gens:
        for j in range(len(u) - 1, 0, -1):
            if u[j] == 0:
                continue
            for i in range(j - 1, -1, -1):
                if not ideal.contains(borel_move(u, i, j)):
                    return (u, i, j)
    return None
