"""Shared test oracles and samplers.

The oracles here are deliberately independent of the library: plain
enumeration, definition-level comparators and finite differencing.
"""

import random
from itertools import product
from math import comb

from hypothesis import strategies as st

from lexlab import (LexlabError, MonomialIdeal, RingSpec, all_strongly_stable,
                    is_strongly_stable)


class GeneratorCapExceeded(LexlabError):
    """An oracle that enumerates generator subsets refused: too many generators."""


# -- brute-force monomial enumeration and Hilbert counts -----------------------


def all_exponents(n, d):
    """Every exponent tuple of total degree d, by brute filtering."""
    return [e for e in product(range(d + 1), repeat=n) if sum(e) == d]


def divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def brute_quotient_dim(ideal, d):
    """dim (R/I)_d by counting standard monomials."""
    gens = ideal.gens
    return sum(1 for e in all_exponents(ideal.ring.n, d)
               if not any(divides(g, e) for g in gens))


def brute_ideal_dim(ideal, d):
    n = ideal.ring.n
    return comb(d + n - 1, n - 1) - brute_quotient_dim(ideal, d)


def grothendieck_serre_failures(ideal, table):
    """Degrees of the table's window where sum_i (-1)^i h^i_j differs from
    H(R/I, j) - P(R/I, j), with H counted by enumeration."""
    from lexlab import hilbert_series
    n = ideal.ring.n
    data = hilbert_series(ideal)
    return [j for j in table.window.degrees()
            if sum((-1) ** i * table.get(i, j) for i in range(n + 1))
            != brute_quotient_dim(ideal, j) - data.poly_value(j)]


def ext_dimensions(ideal, i, window):
    """dim Ext^i(R/I, omega)_d for every degree d in the window, read off the
    local cohomology table by graded local duality:
    Ext^i(R/I, omega)_d = H^(n-i)_m(R/I)_(-d)."""
    from lexlab import DegreeWindow, local_cohomology_table
    n = ideal.ring.n
    table = local_cohomology_table(ideal, DegreeWindow(-window.hi, -window.lo))
    return {d: table.get(n - i, -d) for d in window.degrees()}


def numerator_from_values(values, n):
    """Series numerator from quotient dimensions: convolve with (1-t)^n."""
    coeffs = []
    for k in range(len(values)):
        c = sum((-1) ** i * comb(n, i) * values[k - i] for i in range(min(k, n) + 1))
        coeffs.append(c)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


# -- definition-level order comparators ----------------------------------------


def lex_greater(u, v):
    for a, b in zip(u, v):
        if a != b:
            return a > b
    return False


def degrevlex_greater(u, v):
    if sum(u) != sum(v):
        return sum(u) > sum(v)
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return a < b
    return False


# -- samplers -------------------------------------------------------------------


def random_monomial(rng, n, max_deg, min_deg=1):
    d = rng.randint(min_deg, max_deg)
    e = [0] * n
    for _ in range(d):
        e[rng.randrange(n)] += 1
    return tuple(e)


def random_ideal(rng, ring, max_gens=4, max_deg=3):
    count = rng.randint(1, max_gens)
    gens = tuple(random_monomial(rng, ring.n, max_deg) for _ in range(count))
    return MonomialIdeal(ring, gens)


def borel_closure(monomials, n):
    """Close a set of exponent tuples under the moves X_i * u / X_j, i < j."""
    todo = list(monomials)
    seen = set(todo)
    while todo:
        u = todo.pop()
        for j in range(n):
            if u[j] == 0:
                continue
            for i in range(j):
                v = list(u)
                v[i] += 1
                v[j] -= 1
                v = tuple(v)
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
    return seen


def random_stable_ideal(rng, ring, max_gens=3, max_deg=3):
    """A strongly stable ideal: Borel closure of a few random monomials."""
    seeds = [random_monomial(rng, ring.n, max_deg) for _ in range(rng.randint(1, max_gens))]
    return MonomialIdeal(ring, tuple(borel_closure(seeds, ring.n)))


def non_stable_ideals():
    """Acceptance criterion 12's 300 seeded random ideals in 2-4 variables
    that are not strongly stable."""
    rng = random.Random(1212)
    members = []
    while len(members) < 300:
        I = random_ideal(rng, RingSpec(rng.randint(2, 4)), max_gens=5, max_deg=4)
        if not is_strongly_stable(I):
            members.append(I)
    return members


def oracle_families():
    """Every strongly stable ideal of Q[x,y] of degree <= 5, Q[x,y,z] of
    degree <= 5 (which holds degree <= 4), Q[x,y,z,w] of degree <= 3 and
    Q[x1..x5] of degree <= 2."""
    for n, d in ((2, 5), (3, 5), (4, 3), (5, 2)):
        yield from all_strongly_stable(RingSpec(n), d)


@st.composite
def proper_monomial_ideals(draw):
    """Up to five generators of degree 1-4 in 1-5 variables; the zero ideal
    included, the unit ideal not."""
    n = draw(st.integers(1, 5))
    factors = st.lists(st.integers(0, n - 1), min_size=1, max_size=4)
    gens = [tuple(vs.count(i) for i in range(n))
            for vs in draw(st.lists(factors, max_size=5))]
    return MonomialIdeal(RingSpec(n), tuple(gens))
