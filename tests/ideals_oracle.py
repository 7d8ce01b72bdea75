"""Saturation and strong-stability routes kept as oracles for ``lexlab.ideals``.

The library saturates every monomial ideal by one closed formula (the
intersection of the colons by the top powers of each variable) and tests
strong stability by adjacent moves only.  These are the routes it replaced:
iterated colon by the maximal ideal until the ideal stops growing; "set the
last variable to 1", valid on Borel-fixed input only; and every move
x_i * u / x_j with i < j on every minimal generator.
"""

from lexlab.errors import InternalInconsistency
from lexlab.ideals import MonomialIdeal, colon, maximal_ideal
from lexlab.ring import borel_move


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
