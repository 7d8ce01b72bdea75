"""Oracles for the strongly stable route of ``lexlab.cohomology``.

The library counts generators by (degree, last variable) and expands each
count's binomial once (``lexlab.hilbert.eliahou_kervaire``), and it builds
row i of R/I from only the generators that differ between the links
M_(n-i) and M_(n-i-1) of the projection chain
(``lexlab.cohomology._herzog_sbarra_rows``).  The routes here are the ones
it replaced:

- ``eliahou_kervaire_per_generator`` expands t^deg(u) (1-t)^(m(u)-1) once
  for every generator u, finding m(u) by a scan over the whole exponent;
- ``rows_per_link`` takes the whole numerator of every link and subtracts
  consecutive ones, row i being (-1)^(i+n) (EK(M_(n-i)) - EK(M_(n-i-1))).

Both chains come from ``lexlab.ideals.projection``, the one projection
route; Takayama's degree complexes check the chain independently.
"""

from math import comb

from lexlab.hilbert import poly_sub, poly_trim
from lexlab.ideals import projection


def eliahou_kervaire_per_generator(gens) -> tuple[int, ...]:
    """1 - sum over u of t^deg(u) (1 - t)^(m(u) - 1); () for the unit ideal."""
    if gens and not any(gens[-1]):
        return ()
    out = [1] + [0] * max((sum(u) + len(u) for u in gens), default=0)
    for u in gens:
        d = sum(u)
        m = max(t for t, e in enumerate(u) if e)
        for a in range(m + 1):
            out[d + a] -= (-1) ** a * comb(m, a)
    return poly_trim(out)


def rows_per_link(ideal) -> tuple[dict[int, int], ...]:
    """Row numerators of R/I for strongly stable I from the numerator of
    every link of the projection chain, M_(-1) = R having numerator 0."""
    n = ideal.ring.n
    gens = ideal.gens
    numerators = [eliahou_kervaire_per_generator(gens)]  # numerators[i]: EK(M_(n-i))
    for k in range(n - 1, -1, -1):
        gens = projection(gens, k)
        numerators.append(eliahou_kervaire_per_generator(gens))
    numerators.append(())
    rows = []
    for i in range(n + 1):
        sign = (-1) ** (i + n)
        difference = poly_sub(numerators[i], numerators[i + 1])
        rows.append({k: sign * c for k, c in enumerate(difference) if c})
    return tuple(rows)
