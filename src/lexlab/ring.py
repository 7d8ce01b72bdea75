"""Monomials, term orders and sparse rational polynomials over a fixed ring.

Monomials are plain exponent tuples; coefficients are exact rationals.
The variable priority is X_1 > X_2 > ... > X_n everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd

Exp = tuple[int, ...]

_SHORT_NAMES = ("x", "y", "z", "w")


def default_names(n: int) -> tuple[str, ...]:
    """x, y, z, w for small rings, X1..Xn beyond."""
    if n <= len(_SHORT_NAMES):
        return _SHORT_NAMES[:n]
    return tuple(f"X{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class RingSpec:
    """The ring Q[X_1, ..., X_n] with its standard grading."""

    n: int
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a polynomial ring needs at least one variable")
        names = tuple(self.names) or default_names(self.n)
        if len(names) != self.n or len(set(names)) != self.n:
            raise ValueError(f"expected {self.n} distinct variable names, got {names!r}")
        object.__setattr__(self, "names", names)

    def unit_monomial(self) -> Exp:
        return (0,) * self.n

    def variable(self, i: int) -> Exp:
        return tuple(1 if t == i else 0 for t in range(self.n))

    def variables(self) -> list[Exp]:
        return [self.variable(i) for i in range(self.n)]

    def monomial_str(self, u: Exp) -> str:
        parts = []
        for name, e in zip(self.names, u):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def total_degree(u: Exp) -> int:
    return sum(u)


def monomial_mul(u: Exp, v: Exp) -> Exp:
    return tuple(a + b for a, b in zip(u, v))


def monomial_divides(u: Exp, v: Exp) -> bool:
    """True when u | v."""
    return all(a <= b for a, b in zip(u, v))


def monomial_lcm(u: Exp, v: Exp) -> Exp:
    return tuple(max(a, b) for a, b in zip(u, v))


def monomial_colon(u: Exp, v: Exp) -> Exp:
    """u : v, i.e. u / gcd(u, v) computed by clamped exponent subtraction."""
    return tuple(max(a - b, 0) for a, b in zip(u, v))


def borel_move(u: Exp, i: int, j: int) -> Exp:
    """X_i * u / X_j for 0-based variable positions i < j; X_j must divide u."""
    if not 0 <= i < j < len(u):
        raise ValueError(f"need variable positions i < j, got ({i}, {j})")
    if u[j] == 0:
        raise ValueError(f"variable {j} does not divide the monomial")
    e = list(u)
    e[i] += 1
    e[j] -= 1
    return tuple(e)


def adjacent_moves(u: Exp) -> list[tuple[int, Exp]]:
    """(j, X_{j-1} * u / X_j) for every X_j dividing u, j > 0, last variable first.

    Every Borel move X_i * u / X_j is a chain of adjacent ones, so a set of
    monomials closed under these moves is closed under all of them.
    """
    return [(j, borel_move(u, j - 1, j)) for j in range(len(u) - 1, 0, -1) if u[j]]


@dataclass(frozen=True)
class TermOrder:
    """Total multiplicative monomial order; 'lex' or 'degrevlex'."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("lex", "degrevlex"):
            raise ValueError(f"unknown term order {self.kind!r}")

    def key(self, u: Exp):
        if self.kind == "lex":
            return u
        return (sum(u), tuple(-e for e in reversed(u)))


LEX = TermOrder("lex")
DEGREVLEX = TermOrder("degrevlex")


def compare(a: Exp, b: Exp, order: TermOrder = LEX) -> int:
    """-1, 0 or 1 as a <, =, > b in the given order."""
    if len(a) != len(b):
        raise ValueError("monomials live in rings of different dimension")
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


@lru_cache(maxsize=512)
def enumerate_monomials(n: int, d: int, order: TermOrder = LEX) -> tuple[Exp, ...]:
    """All degree-d monomials in n variables, strictly decreasing in the order."""
    if d < 0:
        raise ValueError("degree must be non-negative")

    def gen(rest: int, deg: int):
        if rest == 1:
            yield (deg,)
            return
        for e in range(deg, -1, -1):
            for tail in gen(rest - 1, deg - e):
                yield (e,) + tail

    monos = list(gen(n, d))
    monos.sort(key=order.key, reverse=True)
    return tuple(monos)


class Poly:
    """Sparse polynomial over Q; maps exponent tuples to nonzero coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean: dict[Exp, Fraction] = {}
        for u, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(u)] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c) -> "Poly":
        return cls(n, {(0,) * n: c})

    @classmethod
    def monomial(cls, u: Exp, c=1) -> "Poly":
        return cls(len(u), {tuple(u): c})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(u) for u in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({sum(u) for u in self.terms}) <= 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for u, c in other.terms.items():
            terms[u] = terms.get(u, 0) + c
        return Poly(self.n, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.n, {u: -c for u, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        terms: dict[Exp, Fraction] = {}
        for u, c in self.terms.items():
            for v, d in other.terms.items():
                w = monomial_mul(u, v)
                terms[w] = terms.get(w, 0) + c * d
        return Poly(self.n, terms)

    def scaled(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.n, {u: cc * c for u, cc in self.terms.items()})

    def term_multiplied(self, u: Exp, c=1) -> "Poly":
        """Multiply by the term c * x^u."""
        c = Fraction(c)
        return Poly(self.n, {monomial_mul(v, u): cc * c for v, cc in self.terms.items()})

    def leading(self, order: TermOrder) -> tuple[Exp, Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        u = max(self.terms, key=order.key)
        return u, self.terms[u]

    def monic(self, order: TermOrder) -> "Poly":
        _, c = self.leading(order)
        return self.scaled(Fraction(c.denominator, c.numerator))

    def primitive(self) -> "Poly":
        """Scale to coprime integer coefficients, positive on the largest monomial."""
        if not self.terms:
            return self
        den = reduce(lambda a, c: a * c.denominator // gcd(a, c.denominator),
                     self.terms.values(), 1)
        num = reduce(gcd, (abs(c.numerator * den // c.denominator) for c in self.terms.values()))
        scale = Fraction(den, num)
        if self.terms[max(self.terms)] < 0:
            scale = -scale
        return self.scaled(scale)

    def __repr__(self) -> str:
        return f"Poly({self.n}, {self.terms!r})"
