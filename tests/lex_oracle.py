"""Oracles for the lex ideals of ``lexlab.gotzmann``.

The set-based builder checks the library's degree walk
(``lexlab.gotzmann._lex_segments``, run by ``lex_ideal_from_values``).  It
builds each degree's segment and the shadow of the previous one as sets of
monomials and takes their difference, with no use of Macaulay's theorem.

``lex_ideal_gotzmann_bound`` checks the stopping degree of
``lexlab.gotzmann.lex_ideal``, which stops by Gotzmann persistence.  It
stops instead one past the largest of the Gotzmann number of the Hilbert
polynomial, the last degree where the Hilbert function and polynomial
differ, and the largest generator degree, all found through the rational
Hilbert polynomial of ``hilbert_polynomial_of``, not the one
``hilbert_series`` builds from the library's forward differences; it counts
the Gotzmann number with ``gotzmann_by_summands``, not with the library's
route, so neither reads ``polynomial_differences``.  It builds with
``lex_ideal_from_values`` on the values up to that degree, so that it
reaches degrees where the set-based builder cannot.

``gotzmann_by_summands`` checks ``lexlab.gotzmann.gotzmann_representation``,
which reads one run of equal exponents at a time from the forward
differences of the Hilbert polynomial, all in integers from the series
numerator N.  The oracle takes the rational Hilbert polynomial instead,
which ``hilbert_polynomial_of`` builds from N with ``binomial_in_x``, one
shifted binomial per term of N.  It subtracts one binomial per summand and
returns the exponent sequence itself, so its cost is the Gotzmann number.

``predict_lc_vanishing`` checks the rows of R/L_P that
``lexlab.cohomology`` computes for the saturated lex ideal L_P of
``saturated_lex_generators``.  It reads the vanishing rows off the zero
entries of the Gotzmann v-vector, with no cohomology at all.

``exchange_by_colon`` checks ``lexlab.gotzmann.exchange_property``, which
saturates strongly stable input by projection, shares lex ideals by series
numerator and reads both sides from J = I^sat alone, the right one as
(J^lex)^sat.  It takes the explicit route the library replaced: every
saturation one colon by the variable powers, and each lex ideal its own
walk over the pivot numerator, stopped past that ideal's top degree; its
right side is (I^lex)^sat, from I's own walk, so the comparison also
checks (I^lex)^sat = (J^lex)^sat.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from ideals_oracle import _saturate_by_powers

from lexlab import GotzmannData, MonomialIdeal, RingSpec, lex_ideal_from_values
from lexlab.errors import InternalInconsistency, MacaulayViolation
from lexlab.gotzmann import _lex_segments
from lexlab.hilbert import (binomial_in_x, hilbert_numerator, hilbert_values, poly_add,
                            poly_eval, poly_sub, poly_trim, values_from_numerator)
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


_binomial_in_x = lru_cache(maxsize=256)(binomial_in_x)


def hilbert_polynomial_of(num, n: int) -> tuple[Fraction, ...]:
    """P = sum_k N_k C(X - k + n - 1, n - 1) in Fractions, from the series
    numerator N of a quotient of the n-variable ring."""
    p: tuple = ()
    for k, c in enumerate(num):
        if c:
            p = poly_add(p, tuple(c * b for b in _binomial_in_x(n - 1, k)))
    return p


def gotzmann_by_summands(p, n: int, cap: int | None = None) -> tuple[int, ...] | None:
    """Exponents a_1 >= ... >= a_l with p = sum_j C(X + a_j - j + 1, a_j),
    one subtraction per summand; None once more than `cap` summands are
    taken."""
    remainder = poly_trim(tuple(Fraction(c) for c in p))
    if len(remainder) - 1 > n - 2:
        raise MacaulayViolation(
            f"polynomial degree {len(remainder) - 1} too large for {n} variables")
    exponents: list[int] = []
    while remainder:
        a = len(remainder) - 1
        lead = remainder[-1] * factorial(a)
        if lead.denominator != 1 or lead <= 0:
            raise MacaulayViolation("not a Gotzmann-representable Hilbert polynomial")
        for _ in range(int(lead)):
            if cap is not None and len(exponents) == cap:
                return None
            remainder = poly_sub(remainder, binomial_in_x(a, len(exponents)))
            exponents.append(a)
        if remainder and len(remainder) - 1 >= a:
            raise MacaulayViolation("not a Gotzmann-representable Hilbert polynomial")
    return tuple(exponents)


def predict_lc_vanishing(data: GotzmannData) -> frozenset[int]:
    """Cohomological indices i in 0..n-1 with vanishing local cohomology of the
    saturated lex quotient; read off zero entries of the v-vector."""
    vanishing = {0}
    for i in range(1, data.n):
        slot = data.n - i
        if slot > data.h or data.v[slot - 1] == 0:
            vanishing.add(i)
    return frozenset(vanishing)


def lex_ideal_gotzmann_bound(ideal: MonomialIdeal) -> MonomialIdeal:
    """The lex-segment ideal with the same Hilbert function as `ideal`."""
    if ideal.is_unit:
        raise ValueError("lex ideal of the unit ideal is not defined")
    if ideal.is_zero:
        return ideal
    ring = ideal.ring
    n = ring.n
    num = hilbert_numerator(ideal)
    p = hilbert_polynomial_of(num, n)
    gotzmann_number = len(gotzmann_by_summands(p, n))
    # the function and polynomial agree from the numerator's degree on
    values = values_from_numerator(num, n, max(len(num) - 1, 0))
    last_dev = max((d for d, v in enumerate(values) if v != poly_eval(p, d)), default=0)
    stop = max(gotzmann_number, last_dev, ideal.max_generator_degree()) + 1
    result = lex_ideal_from_values(ring, values_from_numerator(num, n, stop + 2))
    if result.max_generator_degree() > stop:
        raise InternalInconsistency(
            f"lex ideal of {ideal} produced generators beyond the stopping degree")
    return result


def _lex_walk_by_value(ideal: MonomialIdeal) -> MonomialIdeal:
    n = ideal.ring.n
    top = ideal.max_generator_degree()
    gens: list[Exp] = []
    for d, new in enumerate(_lex_segments(n, hilbert_values(hilbert_numerator(ideal), n))):
        if d > top and not new:
            break
        gens.extend(new)
    return MonomialIdeal(ideal.ring, tuple(gens))


def exchange_by_colon(ideal: MonomialIdeal):
    """(holds, left, right) with left = (I^sat)^lex and right = (I^lex)^sat."""
    sat = _saturate_by_powers(ideal)
    right = _saturate_by_powers(_lex_walk_by_value(ideal))
    left = sat if sat.is_unit else _lex_walk_by_value(sat)
    return left == right, left, right
