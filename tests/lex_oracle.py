"""Set-based lex-ideal builder, kept as the oracle for the library's
shadow-count builder (``lexlab.gotzmann._segments_to_ideal``).

It builds each degree's segment and the shadow of the previous one as sets
of monomials and takes their difference, with no use of Macaulay's theorem.
"""

from lexlab import MonomialIdeal, RingSpec
from lexlab.errors import MacaulayViolation
from lexlab.ring import Exp, enumerate_monomials, monomial_mul


def _segment(n: int, d: int, size: int) -> tuple[Exp, ...]:
    monos = enumerate_monomials(n, d)
    if size > len(monos):
        raise MacaulayViolation(f"degree-{d} segment of size {size} exceeds dim R_d")
    return monos[:size]


def _segments_to_ideal(ring: RingSpec, ideal_dims: list[int]) -> MonomialIdeal:
    """Build the lex ideal from dim I_d for d = 0..D, checking consistency."""
    n = ring.n
    gens: list[Exp] = []
    prev: set[Exp] = set()
    for d, dim_ideal in enumerate(ideal_dims):
        if d == 0:
            if dim_ideal != 0:
                raise MacaulayViolation("a proper ideal has no degree-0 part")
            continue
        seg = set(_segment(n, d, dim_ideal))
        shadow = {monomial_mul(u, ring.variable(i)) for u in prev for i in range(n)}
        if not shadow <= seg:
            raise MacaulayViolation(
                f"values violate Macaulay growth between degrees {d - 1} and {d}")
        gens.extend(sorted(seg - shadow))
        prev = seg
    return MonomialIdeal(ring, tuple(gens))
