"""Oracles for ``lexlab.hilbert``.

Two routes check the Hilbert numerator, whose library route is Bigatti's
pivot on a median power x_i^e (``lexlab.hilbert._numerator_pivot``):

- inclusion-exclusion over generator lcms: HS(R/I, t) (1-t)^n is the sum
  over generator subsets S of (-1)^|S| t^deg lcm(S), so it shares no
  recursion with the pivot route.  It is exponential in the number of
  generators, hence the cap.
- the unit-step pivot N(I) = N(I + (x_i)) + t N(I : x_i), the library route
  before Bigatti's.  Its recursion is as deep as the exponents are large,
  so it takes small exponents only.

The binomial sum H(d) = sum_k N_k C(d - k + n - 1, n - 1), one ``comb`` per
numerator term and degree, checks ``lexlab.hilbert.hilbert_values``, which
takes n running sums of N's coefficients instead.

Lagrange interpolation through n values checks the closed-form Hilbert
polynomial of ``lexlab.hilbert.hilbert_series``.

Dividing N by 1 - t as often as it goes, the library route before
``lexlab.hilbert.polynomial_differences``, checks ``dimension`` and
``multiplicity``, which read the last nonzero forward difference of the
Hilbert polynomial: n minus the number of divisions is the dimension, and
the quotient at t = 1 is the multiplicity.

The greedy binomial decomposition ``macaulay_rep``, whose growth sums
C(k_i + 1, i + 1) over its terms C(k_i, i), is Macaulay's bound on H(d + 1)
from H(d).  It checks the bound the lex walk ``lexlab.gotzmann._lex_segments``
takes from monomials instead: the number of degree-(d + 1) monomials
lex-after the shadow of the degree-d segment (``_count_after``).

Macaulay's conditions on raw values (value 1 in degree 0, each value within
dim R_d, no restart after vanishing, growth within Macaulay's bound) check
``lexlab.gotzmann.lex_ideal_from_values``, whose lex-segment builder is the
library's one check of Macaulay's theorem.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from helpers import GeneratorCapExceeded

from lexlab.errors import InternalInconsistency, MacaulayViolation
from lexlab.hilbert import (hilbert_numerator, poly_add, poly_mul, poly_shift, poly_sub,
                            poly_trim, values_from_numerator)
from lexlab.ideals import minimal_generators
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


def _numerator_unit_pivot(n: int, gens: tuple[Exp, ...]) -> tuple[int, ...]:
    if not gens:
        return (1,)
    if not any(gens[-1]):
        return ()  # unit ideal, zero quotient
    counts = [0] * n
    for g in gens:
        for i, e in enumerate(g):
            if e:
                counts[i] += 1
    if max(counts) <= 1:
        # pairwise coprime generators: the quotient is a complete intersection
        num = (1,)
        for g in gens:
            num = poly_mul(num, poly_sub((1,), poly_shift((1,), total_degree(g))))
        return num
    pivot = counts.index(max(counts))
    var = tuple(1 if t == pivot else 0 for t in range(n))
    plus = minimal_generators([var] + [g for g in gens if g[pivot] == 0])
    quotient = minimal_generators(
        tuple(e - 1 if t == pivot and e else e for t, e in enumerate(g)) for g in gens)
    return poly_add(_numerator_unit_pivot(n, plus),
                    poly_shift(_numerator_unit_pivot(n, quotient), 1))


def values_by_binomial_sums(num, n: int, upto: int) -> list[int]:
    """H(0), ..., H(upto) of N(t)/(1-t)^n, summing over the terms of N."""
    terms = [(k, c) for k, c in enumerate(num) if c]
    values = []
    for d in range(upto + 1):
        v = 0
        for k, c in terms:
            if k > d:
                break
            v += c * comb(d - k + n - 1, n - 1)
        values.append(v)
    return values


def dimension_and_multiplicity_by_division(num, n: int) -> tuple[int, int]:
    """(dim, e) of the quotient with series numerator N != 0: the order of
    the pole of N(t)/(1-t)^n at t = 1, and the reduced numerator at t = 1."""
    reduced, divisions = poly_trim(num), 0
    while sum(reduced) == 0:
        # dividing by 1 - t takes running sums, whose last one is N(1) = 0
        reduced = poly_trim(values_from_numerator(reduced, 1, len(reduced) - 2))
        divisions += 1
    return n - divisions, sum(reduced)


def _interpolate(points) -> tuple[Fraction, ...]:
    """Lagrange interpolation through exact points [(x, y), ...]."""
    result: tuple = ()
    for i, (xi, yi) in enumerate(points):
        basis: tuple = (Fraction(1),)
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = poly_mul(basis, (Fraction(-xj), Fraction(1)))
            denom *= Fraction(xi - xj)
        scaled = tuple(c * Fraction(yi) / denom for c in basis)
        result = poly_add(result, scaled)
    return tuple(Fraction(c) for c in result)


def interpolated_polynomial(ideal) -> tuple[Fraction, ...]:
    """The Hilbert polynomial through its values in degrees d0..d0+n-1,
    d0 the degree of the series numerator, as ``hilbert_series`` once made it."""
    n = ideal.ring.n
    num = hilbert_numerator(ideal)
    d0 = max(len(num) - 1, 0)
    values = values_from_numerator(num, n, d0 + n)
    return poly_trim(_interpolate([(d, values[d]) for d in range(d0, d0 + n)]))


def validate_hilbert_values(values, n: int) -> None:
    """Reject windows of values that no cyclic quotient of R can realize."""
    if not values or values[0] != 1:
        raise MacaulayViolation("a proper cyclic quotient has value 1 in degree 0")
    for d, v in enumerate(values):
        if v < 0 or v > comb(d + n - 1, n - 1):
            raise MacaulayViolation(f"value {v} impossible in degree {d}")
    for d in range(1, len(values) - 1):
        if values[d] == 0 and values[d + 1] != 0:
            raise MacaulayViolation(f"function restarts after vanishing in degree {d}")
        if values[d] and values[d + 1] > macaulay_rep(values[d], d).growth():
            raise MacaulayViolation(
                f"growth {values[d]} -> {values[d + 1]} violates Macaulay's bound in degree {d}")


@dataclass(frozen=True)
class MacaulayRep:
    """Greedy binomial decomposition of an integer in a fixed degree."""

    degree: int
    binomials: tuple[tuple[int, int], ...]  # (k_i, i), i descending from degree

    def value(self) -> int:
        return sum(comb(k, i) for k, i in self.binomials)

    def growth(self) -> int:
        return sum(comb(k + 1, i + 1) for k, i in self.binomials)


def macaulay_rep(a: int, d: int) -> MacaulayRep:
    if d < 1:
        raise ValueError("Macaulay representations need degree >= 1")
    if a < 0:
        raise ValueError("cannot represent a negative integer")
    rest = a
    parts: list[tuple[int, int]] = []
    i = d
    while rest > 0:
        k = i
        while comb(k + 1, i) <= rest:
            k += 1
        parts.append((k, i))
        rest -= comb(k, i)
        i -= 1
    rep = MacaulayRep(d, tuple(parts))
    if rep.value() != a:
        raise InternalInconsistency(f"binomial decomposition of {a} in degree {d} failed")
    return rep
