"""Exact Hilbert functions, series numerators and Hilbert polynomials for
monomial quotients R/I.

The series numerator N(t) with HS(R/I, t) = N(t) / (1-t)^n comes from
Bigatti's pivot recursion on the minimal generators, for every monomial
ideal.  A strongly stable ideal also has the Eliahou-Kervaire formula,
which needs no recursion; the library uses it where it is known that the
input is strongly stable, and the pivot stays the route that does not
depend on that.  The Hilbert polynomial P has one route from N, its integer
forward differences in `polynomial_differences`: the Gotzmann data, the
dimension, the multiplicity and the rational P of `hf` all read them.
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
    first, so each distinct pair subtracts its signed binomials once, straight
    into the dense coefficient list."""
    table = _tally({}, gens, 1)
    out = [1] + [0] * max((d + m for d, m in table), default=0)
    for (d, m), c in table.items():
        for a, b in enumerate(_signed_binomials(m), d):
            out[a] -= c * b
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
    ... when N is a Hilbert series numerator, as the value table and the lex
    walk read them.

    Dividing by 1-t takes running sums, so n running sums of N's
    coefficients give the values, n additions per degree.
    `local_cohomology_table` takes the same sums inline over each row's
    reflected numerator."""
    sums = [0] * n
    for d in count():
        v = num[d] if d < len(num) else 0
        for i in range(n):
            v = sums[i] = sums[i] + v
        yield v


def values_from_numerator(num, n: int, upto: int) -> list[int]:
    """Expand N(t)/(1-t)^n to the coefficient list for degrees 0..upto."""
    return list(islice(hilbert_values(num, n), upto + 1))


def numerator_terms(num) -> list[tuple[int, int]]:
    """N's nonzero terms (k, N_k), in increasing k: one scan of the dense N."""
    return [(k, c) for k, c in enumerate(num) if c]


def hilbert_function(ideal: MonomialIdeal, d: int) -> int:
    """dim_K (R/I)_d = sum over k <= d of N_k C(d - k + n - 1, n - 1)."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return _value(numerator_terms(hilbert_numerator(ideal)[:d + 1]), ideal.ring.n, d)


def _value(terms, n: int, d: int) -> int:
    """H(d) from the nonzero terms (k, N_k) of N with k <= d."""
    return sum(c * comb(d - k + n - 1, n - 1) for k, c in terms)


def binom(m: int, r: int) -> int:
    """C(m, r) = m (m - 1) ... (m - r + 1) / r! for any integer m."""
    return comb(m, r) if m >= 0 else (-1) ** r * comb(r - m - 1, r)


def polynomial_differences(terms, n: int) -> list[int]:
    """D^k P(0) for k < n, D the forward difference and P the Hilbert
    polynomial of N(t)/(1-t)^n, sum_j N_j C(X - j + n - 1, n - 1), which
    has degree < n; `terms` are N's nonzero (j, N_j), from `numerator_terms`.
    D^k C(X + m, r) = C(X + m, r - k) gives them in integers, one binomial
    per nonzero N_j and k."""
    return [sum(c * binom(n - 1 - j, n - 1 - k) for j, c in terms) for k in range(n)]


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
    """Exact series data; `window` is the top degree of the value table,
    the only values expanded.  P is checked against H read from N, as
    `hilbert_function` reads it, at d0 = deg N, ..., d0 + n - 1: from d0 on
    both are polynomials in d of degree < n, so agreeing at these n points
    they are equal.  N is scanned once, for its nonzero terms."""
    n = ideal.ring.n
    if window is None:
        window = ideal.max_generator_degree() + n
    if window < 0:
        raise ValueError(f"window must be at least 0, got {window}")
    num = hilbert_numerator(ideal)
    terms, d0 = numerator_terms(num), max(len(num) - 1, 0)
    # Newton's forward-difference formula: P(X) = sum_k D^k P(0) C(X, k)
    poly: tuple = ()
    for k, diff in enumerate(polynomial_differences(terms, n)):
        if diff:
            poly = poly_add(poly, tuple(diff * b for b in binomial_in_x(k, k)))
    for d in range(d0, d0 + n):
        if poly_eval(poly, d) != _value(terms, n, d):
            raise InternalInconsistency("Hilbert polynomial does not match values")
    return HilbertData(tuple(values_from_numerator(num, n, window)), num, poly, d0)


def dimension(ideal: MonomialIdeal) -> int:
    """Krull dimension of R/I: deg P + 1, one more than the index of the
    last nonzero difference D^k P(0); 0 when P = 0, for artinian R/I."""
    if ideal.is_unit:
        raise ValueError("the zero ring has no dimension here")
    diffs = polynomial_differences(numerator_terms(hilbert_numerator(ideal)), ideal.ring.n)
    return max((k + 1 for k, diff in enumerate(diffs) if diff), default=0)


def multiplicity(ideal: MonomialIdeal) -> int:
    """e(R/I): the last nonzero D^k P(0), k! times P's leading coefficient;
    if P = 0, the length, D^0 of N(t)/(1-t)^(n+1), whose values sum H."""
    if ideal.is_unit:
        raise ValueError("the zero ring has no multiplicity here")
    terms, n = numerator_terms(hilbert_numerator(ideal)), ideal.ring.n
    nonzero = [diff for diff in polynomial_differences(terms, n) if diff]
    e = nonzero[-1] if nonzero else polynomial_differences(terms, n + 1)[0]
    if e <= 0:
        raise InternalInconsistency("multiplicity must be positive for a proper ideal")
    return e
