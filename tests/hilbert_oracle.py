"""Inclusion-exclusion over generator lcms, kept as the oracle for the
library's variable-pivot Hilbert numerator (``lexlab.hilbert._numerator_pivot``).

HS(R/I, t) (1-t)^n = sum over generator subsets S of (-1)^|S| t^deg lcm(S),
so it shares no recursion with the pivot route.  It is exponential in the
number of generators, hence the cap.
"""

from helpers import GeneratorCapExceeded

from lexlab.hilbert import poly_trim
from lexlab.ring import Exp, monomial_lcm, total_degree


def _numerator_inclusion_exclusion(n: int, gens: tuple[Exp, ...]) -> tuple[int, ...]:
    mu = len(gens)
    if mu > 20:
        raise GeneratorCapExceeded(
            f"inclusion-exclusion over {mu} generators needs 2^{mu} subsets")
    lcm_deg = [0] * (1 << mu)
    lcms: list[Exp] = [(0,) * n] * (1 << mu)
    coeffs = [0] * (sum(total_degree(g) for g in gens) + 1)
    coeffs[0] = 1
    for mask in range(1, 1 << mu):
        low = (mask & -mask).bit_length() - 1
        lcms[mask] = monomial_lcm(lcms[mask ^ (1 << low)], gens[low])
        lcm_deg[mask] = total_degree(lcms[mask])
        sign = -1 if bin(mask).count("1") % 2 else 1
        coeffs[lcm_deg[mask]] += sign
    return poly_trim(coeffs)
