"""Lex-segment ideals, Gotzmann representations and saturated-lex structure.

The lex ideal of I is spanned degree by degree by initial lex segments of the
same dimensions as I, so it depends only on the series numerator N of R/I.
One walk over the Hilbert function values builds it, bounding each degree's
value by the number of monomials lex-after the shadow of the segment before
(Macaulay), and stops by Gotzmann persistence; it is also the library's one
check of Macaulay's theorem.  Its one memo is the walk's, by (ring, N), with
N from the Eliahou-Kervaire formula for strongly stable input and from the
pivot otherwise.  The saturation is controlled by the canonical binomial
representation of the Hilbert polynomial, read in integers from the forward
differences of `polynomial_differences`; its generators follow directly.
Both sides of the exchange property depend on I^sat alone, so its report is
memoised by the saturation.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from math import comb

from .errors import MacaulayViolation
from .hilbert import (binom, eliahou_kervaire, hilbert_numerator, hilbert_values,
                      numerator_terms, polynomial_differences)
from .ideals import MonomialIdeal, graded_generator_counts, is_strongly_stable, saturate
from .ring import Exp, Frozen, RingSpec


# -- Gotzmann representation of a Hilbert polynomial --------------------------


class GotzmannData(Frozen):
    """The v-vector of the binomial representation of a Hilbert polynomial:
    v[i-1] counts the summands with exponent n - i - 1, i = 1..n-1.  The
    exponents a_1 >= ... >= a_l, their number l (the Gotzmann number) and h,
    the largest index with v_h != 0 (0 when empty), follow from it."""

    __slots__ = ("n", "v")

    @property
    def a(self) -> tuple[int, ...]:
        return tuple(self.n - i - 1 for i, count in enumerate(self.v, 1) for _ in range(count))

    @property
    def h(self) -> int:
        return max((i for i, count in enumerate(self.v, 1) if count), default=0)

    @property
    def l(self) -> int:
        return sum(self.v)


def gotzmann_representation(num, n: int) -> GotzmannData:
    """Canonical decomposition of the Hilbert polynomial P of the series
    numerator num into shifted binomials C(X + a_j - j + 1, a_j), j = 1..l.

    It reads P's differences D^k P(0) from `polynomial_differences`.  The
    next run's exponent a is the last k with D^k P(0) != 0 and its count c
    is D^a P(0); its c summands after `shift` others sum to C(X + a + 1 -
    shift, a + 1) - C(X + a + 1 - shift - c, a + 1) (hockey stick), whose
    differences D^k C(X + m, r) = C(X + m, r - k) are integers, so each run
    is one subtraction.

    Rejects polynomials of degree > n-2 (the v-vector has no slot for them)
    and anything that is not the Hilbert polynomial of a saturated quotient.
    """
    diffs = polynomial_differences(numerator_terms(num), n)
    v = [0] * max(n - 1, 0)
    shift = 0   # summands before this run
    while any(diffs):
        a, c = max((k, d) for k, d in enumerate(diffs) if d)
        if a > n - 2:
            raise MacaulayViolation(f"polynomial degree {a} too large for {n} variables")
        if c <= 0:
            raise MacaulayViolation("not a Gotzmann-representable Hilbert polynomial")
        for k in range(a + 1):   # clears D^a, so the degree drops
            diffs[k] -= binom(a + 1 - shift, a + 1 - k) - binom(a + 1 - shift - c, a + 1 - k)
        v[n - a - 2] = c   # slot n - a - 1, stored 0-based
        shift += c
    return GotzmannData(n, tuple(v))


def lex_top_degree(num, n: int) -> int:
    """T, the top generator degree of the lex ideal of the quotients with
    series numerator num: 0 for the zero ideal (N = 1), else max(l, deg N -
    n + 1), l the Gotzmann number.  From there on H = P grows maximally
    (Gotzmann); the stable lex ideal's Betti shifts give T >= deg N - n + 1,
    and its saturation L_P has a generator in degree l."""
    if num == (1,):
        return 0
    return max(gotzmann_representation(num, n).l, len(num) - n)


def saturated_lex_generators(data: GotzmannData, ring: RingSpec | None = None) -> MonomialIdeal:
    """The saturated lex ideal whose quotient has the represented polynomial."""
    ring = ring or RingSpec(data.n)
    if ring.n != data.n:
        raise ValueError("ring size does not match the representation")
    v = data.v
    gens = []
    for t in range(1, data.h + 1):
        exp = [0] * ring.n
        for s in range(t - 1):
            exp[s] = v[s]
        exp[t - 1] = v[t - 1] + (1 if t < data.h else 0)
        gens.append(tuple(exp))
    if data.h == 0:
        gens.append(ring.unit_monomial())  # empty representation: unit ideal
    return MonomialIdeal(ring, tuple(gens))


# -- lex ideals ----------------------------------------------------------------


def _lex_next(u: Exp) -> Exp:
    """The monomial right after u in the lex order of its degree: with u_i
    the last nonzero exponent before x_n, x_i gives one to x_{i+1}, which
    also takes x_n's exponent (the entries between are zero).  Raises
    ValueError when u is the last monomial, x_n^d, or n = 1."""
    i = len(u) - 2
    while not u[i]:   # stops at i = -1 on x_n^d at the latest, u[-1] = d
        i -= 1
    if i < 0:
        raise ValueError(f"no monomial of degree {sum(u)} follows {u} in lex order")
    return (*u[:i], u[i] - 1, u[-1] + 1, *(0,) * (len(u) - i - 2))


def _count_after(u: Exp) -> int:
    """The number of monomials of u's degree after u in lex order.

    Those that first fall below u at position i agree with u before i and
    hold less than u_i at i.  With r the degree u leaves from i on and k
    the number of variables after i, C(r + k, k) monomials hold r in the
    variables from i on, and C(r - u_i + k, k) of them at least u_i at i."""
    count, r, k = 0, sum(u), len(u) - 1
    for e in u[:-1]:
        if e:
            count += comb(r + k, k) - comb(r - e + k, k)
            r -= e
        k -= 1
    return count


def _lex_segments(n: int, values) -> Iterator[list[Exp]]:
    """Walk the quotient's Hilbert function values H(0), H(1), ... and yield
    each degree's minimal generators of the lex ideal, from degree 0 on.
    Cut after any degree, they minimally generate a lex ideal, which is
    strongly stable, so both callers build through `_strongly_stable`.

    The shadow of the degree-(d-1) lex segment ending at m is the degree-d
    segment ending at u = m*x_n (Macaulay), so H(d) is at most the number
    of degree-d monomials after u, or dim R_d when the segment before is
    empty.  The degree-d generators are the next bound - H(d) monomials
    after u, stepped through in lex order, or from x_1^d on.  This is the
    one check of Macaulay's theorem: the values are a Hilbert function
    exactly when the walk meets no violation."""
    u = None   # the end of the previous degree's segment, None while empty
    for d, value in enumerate(values):
        if not isinstance(value, int):
            raise MacaulayViolation(f"degree-{d} value {value!r} is not an integer")
        if d == 0:
            if value != 1:
                raise MacaulayViolation("a proper ideal has no degree-0 part")
            yield []
            continue
        if value < 0:
            raise MacaulayViolation(f"degree-{d} segment of size "
                                    f"{comb(d + n - 1, n - 1) - value} exceeds dim R_d")
        if u is None:
            bound = comb(d + n - 1, n - 1)
        else:
            u = (*u[:-1], u[-1] + 1)   # the shadow's end
            bound = _count_after(u)
        if value > bound:
            raise MacaulayViolation(
                f"values violate Macaulay growth between degrees {d - 1} and {d}")
        gens = []
        for _ in range(bound - value):
            u = (d, *(0,) * (n - 1)) if u is None else _lex_next(u)
            gens.append(u)
        yield gens


class _Walk(Frozen):
    """Key of the lex walk: ring and series numerator, which fix the lex
    ideal.  top, the largest generator degree of the ideal asked, only sets
    where the walk may stop, so the `_values` that eq and hash compare
    leave it out."""
    __slots__ = ("ring", "num", "top")

    def __init__(self, ring: RingSpec, num: tuple[int, ...], top: int) -> None:
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "_values", (ring, num))


@lru_cache(maxsize=1024)
def _lex_by_numerator(walk: _Walk) -> MonomialIdeal:
    """The lex ideal of the quotients with series numerator walk.num, walked
    until the first degree above walk.top that adds no generator.

    There H grows maximally from d-1 to d while the ideal asked is generated
    in degrees < d, so by Gotzmann persistence it does in every later
    degree, and the lex ideal has no generator from d on.  Every ideal with
    that numerator gives the same lex ideal, so the first one asked sets
    the stop for all of them."""
    n = walk.ring.n
    gens: list[Exp] = []
    for d, new in enumerate(_lex_segments(n, hilbert_values(walk.num, n))):
        if d > walk.top and not new:
            break
        gens.extend(new)
    return MonomialIdeal._strongly_stable(walk.ring, gens)


def lex_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """The lex-segment ideal with the same Hilbert function as `ideal`.

    It depends only on the series numerator N, the Eliahou-Kervaire one for
    strongly stable input and the pivot one otherwise, so its only memo is
    the walk's, by (ring, N): ideals with one Hilbert function share it."""
    if ideal.is_unit:
        raise ValueError("lex ideal of the unit ideal is not defined")
    if ideal.is_zero:
        return ideal
    if is_strongly_stable(ideal):
        num = eliahou_kervaire(ideal.gens)
    else:
        num = hilbert_numerator(ideal)
    return _lex_by_numerator(_Walk(ideal.ring, num, ideal.max_generator_degree()))


def lex_ideal_from_values(ring: RingSpec, values) -> MonomialIdeal:
    """Lex ideal from raw Hilbert function values for degrees 0..len-1.

    Generators are discovered through the provided window only, and a
    sequence that is not a Hilbert function raises `MacaulayViolation`.
    """
    values = list(values)
    if not values:
        raise MacaulayViolation("a proper cyclic quotient has value 1 in degree 0")
    return MonomialIdeal._strongly_stable(
        ring, [g for new in _lex_segments(ring.n, values) for g in new])


def is_gotzmann(ideal: MonomialIdeal) -> bool:
    """Same number of minimal generators in each degree as the lex ideal."""
    if ideal.is_unit:
        raise ValueError("Gotzmann test needs a proper ideal")
    return graded_generator_counts(ideal) == graded_generator_counts(lex_ideal(ideal))


# -- the exchange property -----------------------------------------------------


class ExchangeReport(Frozen):
    __slots__ = ("left", "right", "holds")

    def __init__(self, left: MonomialIdeal, right: MonomialIdeal) -> None:
        object.__setattr__(self, "left", left)    # lex of the saturation
        object.__setattr__(self, "right", right)  # saturation of the lex ideal
        object.__setattr__(self, "holds", left == right)
        object.__setattr__(self, "_values", (left, right))


def exchange_property(ideal: MonomialIdeal) -> ExchangeReport:
    """Compare (I^sat)^lex against (I^lex)^sat, exactly, from J = I^sat alone.

    J/I = H^0_m(R/I) has finite length, so I and J have the same Hilbert
    polynomial P.  Saturating a lex ideal gives a lex ideal with the same
    polynomial, and a saturated lex ideal is fixed by its polynomial (it is
    L_P; Reeves-Stillman, J. Algebraic Geom. 6, 1997), so (I^lex)^sat =
    L_P = (J^lex)^sat.  One lex ideal, J^lex, gives both sides, and (i)
    reads "J^lex is saturated".  So the report is a function of J: it is
    memoised by J's value in `_exchange_of_saturation`, and ideals with one
    saturation share one report, its lex walk and its saturation."""
    if ideal.is_unit:
        raise ValueError("exchange property needs a proper ideal")
    return _exchange_of_saturation(saturate(ideal))


@lru_cache(maxsize=1024)
def _exchange_of_saturation(sat: MonomialIdeal) -> ExchangeReport:
    """The exchange report of every ideal whose saturation is sat.  A lex
    ideal is built strongly stable, so `saturate` projects J^lex with no
    strong-stability witness."""
    left = sat if sat.is_unit else lex_ideal(sat)  # artinian: both sides are the unit ideal
    return ExchangeReport(left, saturate(left))
