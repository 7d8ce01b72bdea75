"""Exact Hilbert functions, series numerators and Hilbert polynomials for
monomial quotients R/I.

The series numerator N(t) with HS(R/I, t) = N(t) / (1-t)^n comes from
Bigatti's pivot recursion on the minimal generators, for every monomial
ideal.  A strongly stable ideal also has the Eliahou-Kervaire formula,
which needs no recursion; the library uses it where it is known that the
input is strongly stable, and the pivot stays the route that does not
depend on that.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import comb

from .errors import InternalInconsistency
from .ideals import MonomialIdeal, minimal_generators
from .ring import Exp, Frozen, total_degree

# -- small dense integer/rational polynomial helpers (coefficient lists) -----


def poly_trim(p) -> tuple:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def poly_add(p, q) -> tuple:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return poly_trim(out)


def poly_sub(p, q) -> tuple:
    return poly_add(p, [-c for c in q])


def poly_mul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_shift(p, k: int) -> tuple:
    """Multiply by t^k."""
    return poly_trim((0,) * k + tuple(p))


def poly_eval(p, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(tuple(p)):
        acc = acc * x + c
    return acc


def binomial_in_x(a: int, shift: int) -> tuple[Fraction, ...]:
    """Coefficients of binom(X + a - shift, a) as a polynomial in X, in
    Fractions.  Only the rational Hilbert polynomial that `hf` displays and
    the test oracles use it; the Gotzmann data is read from N in integers."""
    coeffs: tuple = (Fraction(1),)
    for t in range(1, a + 1):
        coeffs = poly_mul(coeffs, (Fraction(t - shift), Fraction(1)))
        coeffs = tuple(Fraction(c, t) for c in coeffs)  # c may be an int 0
    return tuple(coeffs)


# -- numerators ---------------------------------------------------------------


@lru_cache(maxsize=8192)
def _numerator_pivot(n: int, gens: tuple[Exp, ...]) -> tuple[int, ...]:
    """Bigatti's pivot (J. Pure Appl. Algebra 119, 1997) on the variable x_i
    in most generators: with e the lower median of the x_i exponents of the
    generators that hold x_i but are not powers of it, N(I) =
    N((x_i^e) + {g : g_i < e}) + t^e N(I : x_i^e).  Both ideals strictly
    contain I, so the recursion ends, and each step splits the x_i exponents
    at their median instead of lowering them by one, so its depth does not
    grow with the size of the exponents."""
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
    # powers of x_i are left out: a generator x_i^e would make I + (x_i^e) = I
    exponents = sorted(g[pivot] for g in gens if g[pivot] and total_degree(g) > g[pivot])
    e = exponents[(len(exponents) - 1) // 2]
    power = tuple(e if t == pivot else 0 for t in range(n))
    # minimal already: x_i^e divides none of the g with g_i < e, and no power
    # of x_i below e is a generator
    plus = tuple(sorted([power] + [g for g in gens if g[pivot] < e], reverse=True))
    quotient = minimal_generators(
        tuple(max(x - e, 0) if t == pivot else x for t, x in enumerate(g)) for g in gens)
    return poly_add(_numerator_pivot(n, plus),
                    poly_shift(_numerator_pivot(n, quotient), e))


def hilbert_numerator(ideal: MonomialIdeal) -> tuple[int, ...]:
    """N(t) with HS(R/I, t) = N(t)/(1-t)^n; empty tuple means N = 0."""
    return _numerator_pivot(ideal.ring.n, ideal.gens)


def eliahou_kervaire(gens: tuple[Exp, ...]) -> tuple[int, ...]:
    """Series numerator of R/I for the strongly stable I minimally generated
    by gens (Eliahou-Kervaire, J. Algebra 129, 1990): 1 - sum over u of
    t^deg(u) (1 - t)^(m(u) - 1), m(u) the largest index of a variable dividing
    u; () for the unit ideal.  The generators are counted by (degree, m(u))
    first, so each distinct pair expands its binomial once."""
    terms = _expand_tally(_tally({}, gens, 1))
    out = [1] + [0] * max(terms, default=0)
    for k, c in terms.items():
        out[k] -= c
    return poly_trim(out)


def _tally(table: dict, gens, weight: int) -> dict:
    """Add `weight` to table[(deg u, m)] for each u in gens, x_(m+1) the last
    variable dividing u; the unit takes the key (0, 0)."""
    for u in gens:
        m = len(u) - 1
        while m and not u[m]:
            m -= 1
        key = sum(u), m
        table[key] = table.get(key, 0) + weight
    return table


def _expand_tally(table: dict) -> dict[int, int]:
    """The sum of c t^d (1 - t)^m over table[(d, m)] = c, as {degree:
    coefficient} in increasing degree with zero coefficients left out."""
    out: dict[int, int] = {}
    for (d, m), c in table.items():
        if c:
            for a, b in enumerate(_signed_binomials(m), d):
                out[a] = out.get(a, 0) + c * b
    return {k: c for k, c in sorted(out.items()) if c}


@lru_cache(maxsize=64)
def _signed_binomials(m: int) -> tuple[int, ...]:
    """The coefficients (-1)^a C(m, a) of (1 - t)^m."""
    return tuple((-1) ** a * comb(m, a) for a in range(m + 1))


def hilbert_values(num, n: int) -> Iterator[int]:
    """The coefficients of N(t)/(1-t)^n for any N, without end: H(0), H(1),
    ... when N is a Hilbert series numerator, and a local cohomology row read
    down from its top when `local_cohomology_table` passes the row's
    reflected numerator.

    Dividing by 1-t takes running sums, so n running sums of N's
    coefficients give the values, n additions per degree."""
    sums = [0] * n
    for d in count():
        v = num[d] if d < len(num) else 0
        for i in range(n):
            v = sums[i] = sums[i] + v
        yield v


def values_from_numerator(num, n: int, upto: int) -> list[int]:
    """Expand N(t)/(1-t)^n to the coefficient list for degrees 0..upto."""
    return list(islice(hilbert_values(num, n), upto + 1))


def hilbert_function(ideal: MonomialIdeal, d: int) -> int:
    """dim_K (R/I)_d."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    num = hilbert_numerator(ideal)
    return values_from_numerator(num, ideal.ring.n, d)[d]


# -- Hilbert series data ------------------------------------------------------


class HilbertData(Frozen):
    """Window of Hilbert function values plus the exact rational-series data."""

    __slots__ = ("values",       # dim (R/I)_d for d = 0..D
                 "numerator",    # N(t) coefficients
                 "polynomial",   # P with P(d) = values[d] for d >= d0
                 "d0")

    def poly_value(self, d) -> Fraction:
        return poly_eval(self.polynomial, Fraction(d))

    def to_json(self) -> dict:
        return {
            "values": list(self.values),
            "numerator": list(self.numerator),
            "polynomial": [[c.numerator, c.denominator] for c in self.polynomial],
            "d0": self.d0,
        }


def hilbert_series(ideal: MonomialIdeal, window: int | None = None) -> HilbertData:
    """Exact series data; `window` is the top degree of the value table."""
    n = ideal.ring.n
    if window is None:
        window = ideal.max_generator_degree() + n
    if window < 0:
        raise ValueError(f"window must be at least 0, got {window}")
    num = hilbert_numerator(ideal)
    d0 = max(len(num) - 1, 0)
    upto = max(window, d0 + n + 2)
    values = values_from_numerator(num, n, upto)
    # N(t)/(1-t)^n = sum_k N_k t^k / (1-t)^n, and t^k/(1-t)^n has the
    # coefficient binom(d - k + n - 1, n - 1) in every degree d >= k - n + 1
    poly: tuple = ()
    for k, c in enumerate(num):
        if c:
            poly = poly_add(poly, tuple(c * b for b in binomial_in_x(n - 1, k)))
    for d in range(d0, upto + 1):
        if poly_eval(poly, d) != values[d]:
            raise InternalInconsistency("Hilbert polynomial does not match values")
    return HilbertData(tuple(values[: window + 1]), num, poly, d0)


def dimension(ideal: MonomialIdeal) -> int:
    """Krull dimension of R/I, read off the pole order of the series at t=1."""
    if ideal.is_unit:
        raise ValueError("the zero ring has no dimension here")
    num = hilbert_numerator(ideal)
    _, vanishing = _strip_one_minus_t(num)
    return ideal.ring.n - vanishing


def multiplicity(ideal: MonomialIdeal) -> int:
    """Normalized leading coefficient of the Hilbert polynomial (length if artinian)."""
    if ideal.is_unit:
        raise ValueError("the zero ring has no multiplicity here")
    num = hilbert_numerator(ideal)
    reduced, _ = _strip_one_minus_t(num)
    e = sum(reduced)
    if e <= 0:
        raise InternalInconsistency("multiplicity must be positive for a proper ideal")
    return e


def _strip_one_minus_t(num) -> tuple[tuple[int, ...], int]:
    """Divide out (1-t) as often as possible; returns (quotient, exponent)."""
    current = poly_trim(num)
    count = 0
    while current and sum(current) == 0:
        current = poly_trim(values_from_numerator(current, 1, len(current) - 2))
        count += 1
    return current, count
