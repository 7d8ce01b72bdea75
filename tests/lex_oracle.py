"""Oracles for the lex ideals of ``lexlab.gotzmann``.

The set-based builder checks the library's shadow-count builder
(``lexlab.gotzmann._segments_to_ideal``).  It builds each degree's segment
and the shadow of the previous one as sets of monomials and takes their
difference, with no use of Macaulay's theorem.

``lex_ideal_gotzmann_bound`` checks the stopping degree of
``lexlab.gotzmann.lex_ideal``, which stops by Gotzmann persistence.  It
stops instead one past the largest of the Gotzmann number of the Hilbert
polynomial, the last degree where the Hilbert function and polynomial
differ, and the largest generator degree, all found through the rational
Hilbert polynomial.  It builds with the library's shadow-count builder, so
that it reaches degrees where the set-based one cannot.
"""

from math import comb

from lexlab import MonomialIdeal, RingSpec, gotzmann_representation, hilbert_series
from lexlab.errors import InternalInconsistency, MacaulayViolation
from lexlab.gotzmann import _segments_to_ideal as _shadow_segments_to_ideal
from lexlab.hilbert import values_from_numerator
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


def lex_ideal_gotzmann_bound(ideal: MonomialIdeal) -> MonomialIdeal:
    """The lex-segment ideal with the same Hilbert function as `ideal`."""
    if ideal.is_unit:
        raise ValueError("lex ideal of the unit ideal is not defined")
    if ideal.is_zero:
        return ideal
    ring = ideal.ring
    n = ring.n
    data = hilbert_series(ideal)
    gotz = gotzmann_representation(data.polynomial, n)
    last_dev = 0
    for d in range(len(data.values)):
        if data.values[d] != data.poly_value(d):
            last_dev = d
    stop = max(gotz.l, last_dev, ideal.max_generator_degree()) + 1
    upto = stop + 2
    values = values_from_numerator(data.numerator, n, upto)
    dims = [comb(d + n - 1, n - 1) - values[d] for d in range(upto + 1)]
    result = _shadow_segments_to_ideal(ring, dims)
    if result.max_generator_degree() > stop:
        raise InternalInconsistency(
            f"lex ideal of {ideal} produced generators beyond the stopping degree")
    return result
