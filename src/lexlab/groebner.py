"""Buchberger completion over Q, initial ideals, and generic initial ideals:
a strongly stable ideal is its own gin, other input takes random integer
coordinate changes.

The core works over the integers.  A polynomial is a dict from exponent
tuples to ints, and basis elements are kept primitive: content divided out,
leading coefficient positive.  Reduction is fraction-free (as Bareiss elimination
is for ranks): to cancel a term with coefficient c against a basis element
with leading coefficient lcg, the work polynomial is scaled by lcg/t and c/t
times the element is subtracted, t = gcd(c, lcg).  S-polynomials are formed
by the same cross-multiplication, and each monomial's term-order key is
computed once per call.  This core is the library's only polynomial
arithmetic: a `Poly` is a value, and `Fraction` appears only where one is
built at the public API.  The elements of a `GBasis` are monic `Poly`s,
`normal_form` and `apply_change` return exact rational results, and the gin
trials build no `Fraction`.  The `Fraction`-based reference route is the
oracle in the test suite.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from operator import add, le, sub

from .errors import InternalInconsistency, InvalidArgument, UnluckyCoordinates
from .ideals import MonomialIdeal, is_strongly_stable, minimal_generators
from .linalg import fraction_free_rank
from .ring import (DEGREVLEX, Exp, Frozen, Poly, RingSpec, TermOrder, enumerate_monomials,
                   monomial_divides, monomial_lcm, monomial_mul, total_degree)

IntPoly = dict[Exp, int]
# a basis element: leading monomial, leading coefficient (positive), terms
Entry = tuple[Exp, int, IntPoly]


class _OrderKeys(dict):
    """Term-order keys of the monomials one computation meets, each computed once."""

    def __init__(self, order: TermOrder):
        super().__init__()
        self.order_key = order.key

    def __missing__(self, u: Exp):
        k = self[u] = self.order_key(u)
        return k


def _integral(p: Poly) -> tuple[IntPoly, int]:
    """p times the lcm D of its denominators, and D."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {u: c.numerator * (den // c.denominator) for u, c in p.terms.items()}, den


def _entry(f: IntPoly, keys: _OrderKeys) -> Entry:
    """f divided by its content, with a positive leading coefficient."""
    lead = max(f, key=keys.__getitem__)
    g = gcd(*f.values())
    if f[lead] < 0:
        g = -g
    if g != 1:
        f = {u: c // g for u, c in f.items()}
    return lead, f[lead], f


def _subtract(f: IntPoly, b: int, q: Exp, g: IntPoly) -> None:
    """f -= b * x^q * g, in place."""
    for u, c in g.items():
        w = tuple(map(add, u, q))
        c = f.get(w, 0) - b * c
        if c:
            f[w] = c
        else:
            del f[w]


def _spoly(f: Entry, g: Entry) -> IntPoly:
    """lcg/t * x^(L-lf) * f - lcf/t * x^(L-lg) * g, with L the lcm of the
    leading monomials and t = gcd(lcf, lcg): the leading terms cancel."""
    (lf, cf, tf), (lg, cg, tg) = f, g
    lead = monomial_lcm(lf, lg)
    t = gcd(cf, cg)
    a, b = cg // t, cf // t
    qf, qg = tuple(map(sub, lead, lf)), tuple(map(sub, lead, lg))
    s = {tuple(map(add, u, qf)): a * c for u, c in tf.items()}
    _subtract(s, b, qg, tg)
    return s


def _reduce(f: IntPoly, basis: list[Entry], keys: _OrderKeys) -> tuple[IntPoly, int]:
    """Fraction-free full reduction of f by the basis (head and tail reduced).

    Returns (r, s) with s the product of the scalings of the work polynomial,
    so r / s is the exact remainder of f.
    """
    key = keys.__getitem__
    work = dict(f)
    kept = []  # remainder terms, each with the scale in force when it was set aside
    scale = 1
    while work:
        lm = max(work, key=key)
        c = work[lm]
        for lg, cg, g in basis:
            if all(map(le, lg, lm)):
                break
        else:
            kept.append((lm, c, scale))
            del work[lm]
            continue
        t = gcd(c, cg)
        a, b = cg // t, c // t
        if a != 1:
            scale *= a
            work = {u: a * v for u, v in work.items()}
        _subtract(work, b, tuple(map(sub, lm, lg)), g)
    return {u: c * (scale // s) for u, c, s in kept}, scale


def _as_poly(n: int, f: IntPoly, den: int) -> Poly:
    """The exact polynomial f / den."""
    return Poly(n, f if den == 1 else {u: Fraction(c, den) for u, c in f.items()})


def normal_form(f: Poly, basis, order: TermOrder) -> Poly:
    """Full remainder of f on division by the basis (head and tail reduced)."""
    keys = _OrderKeys(order)
    work, den = _integral(f)
    r, scale = _reduce(work, [_entry(_integral(g)[0], keys) for g in basis], keys)
    return _as_poly(f.n, r, scale * den)


class GBasis(Frozen):
    """A reduced Groebner basis: monic, inter-reduced, pairwise non-divisible leads."""

    __slots__ = ("ring", "order", "elements")  # elements: tuple[Poly, ...]

    def leading_monomials(self) -> tuple[Exp, ...]:
        return tuple(g.leading(self.order)[0] for g in self.elements)


def buchberger(gens, order: TermOrder, ring: RingSpec | None = None) -> GBasis:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    polys = [p for p in gens if not p.is_zero()]
    if ring is None:
        if not polys:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = RingSpec(polys[0].n)
    reduced = _groebner([_integral(p)[0] for p in polys], _OrderKeys(order))
    return GBasis(ring, order, tuple(_as_poly(ring.n, f, lc) for _, lc, f in reduced))


def _groebner(polys: list[IntPoly], keys: _OrderKeys) -> list[Entry]:
    """Reduced primitive basis of the ideal generated by nonzero integer polys."""
    inputs = [_entry(f, keys) for f in polys]
    basis: list[Entry] = []
    for p in inputs:
        r = _reduce(p[2], basis, keys)[0]
        if r:
            basis.append(_entry(r, keys))
    lead = [e[0] for e in basis]
    pairs: set[tuple[int, int]] = set()
    pair_key: dict[tuple[int, int], tuple] = {}

    def add_pairs(new_pairs) -> None:
        for i, j in new_pairs:
            lcm_ij = monomial_lcm(lead[i], lead[j])
            pair_key[(i, j)] = (total_degree(lcm_ij), keys[lcm_ij])
        pairs.update(new_pairs)

    add_pairs([(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))])
    processed: set[tuple[int, int]] = set()
    while pairs:
        i, j = min(pairs, key=pair_key.__getitem__)
        pairs.discard((i, j))
        processed.add((i, j))
        lcm_ij = monomial_lcm(lead[i], lead[j])
        if lcm_ij == monomial_mul(lead[i], lead[j]):
            continue  # coprime leading terms
        chained = False
        for k in range(len(basis)):
            if k in (i, j) or not monomial_divides(lead[k], lcm_ij):
                continue
            a, b = tuple(sorted((i, k))), tuple(sorted((k, j)))
            if a in processed and b in processed:
                chained = True
                break
        if chained:
            continue
        r = _reduce(_spoly(basis[i], basis[j]), basis, keys)[0]
        if not r:
            continue
        basis.append(_entry(r, keys))
        lead.append(basis[-1][0])
        new = len(basis) - 1
        add_pairs([(t, new) for t in range(new)])
    reduced = _reduce_basis(basis, keys)
    for p in inputs:
        if _reduce(p[2], reduced, keys)[0]:
            raise InternalInconsistency("an input generator does not reduce to zero")
    return reduced


def _reduce_basis(basis: list[Entry], keys: _OrderKeys) -> list[Entry]:
    """Minimal, inter-reduced primitive basis, by decreasing leading monomial."""
    # the first element with each minimal leading monomial, in basis order
    first: dict[Exp, Entry] = {}
    for e in basis:
        first.setdefault(e[0], e)
    keep = set(minimal_generators(first))
    minimal = [e for u, e in first.items() if u in keep]
    # the leads stay pairwise non-divisible, so one reduction of each element
    # against the others already gives the reduced basis
    reduced = [_entry(_reduce(e[2], minimal[:i] + minimal[i + 1:], keys)[0], keys)
               for i, e in enumerate(minimal)]
    reduced.sort(key=lambda e: keys[e[0]], reverse=True)
    return reduced


def initial_ideal(basis: GBasis) -> MonomialIdeal:
    return MonomialIdeal(basis.ring, basis.leading_monomials())


# -- generic initial ideals -----------------------------------------------------


class CoordinateChange(Frozen):
    """An invertible integer matrix acting on the variables, with its seed."""

    __slots__ = ("matrix", "seed")  # matrix: tuple[tuple[int, ...], ...]


def random_coordinate_change(ring: RingSpec, seed: str, bound: int = 1000) -> CoordinateChange:
    rng = random.Random(seed)
    for _ in range(100):
        rows = tuple(tuple(rng.randint(-bound, bound) for _ in range(ring.n))
                     for _ in range(ring.n))
        if fraction_free_rank([list(r) for r in rows]) == ring.n:
            return CoordinateChange(rows, seed)
    raise InternalInconsistency("failed to sample an invertible matrix")


def _mul(f: IntPoly, g: IntPoly) -> IntPoly:
    out: IntPoly = {}
    for u, c in f.items():
        for v, d in g.items():
            w = tuple(map(add, u, v))
            out[w] = out.get(w, 0) + c * d
    return {w: c for w, c in out.items() if c}


def apply_change(p: Poly, change: CoordinateChange) -> Poly:
    """Substitute X_i -> sum_j M[i][j] X_j, multiplying integer linear forms."""
    f, den = _integral(p)
    return _as_poly(p.n, _substitute(f, change), den)


def _substitute(f: IntPoly, change: CoordinateChange) -> IntPoly:
    """apply_change on an integer polynomial."""
    n = len(change.matrix)
    variables = enumerate_monomials(n, 1)
    rows = [{v: m for v, m in zip(variables, row) if m} for row in change.matrix]
    powers: dict[tuple[int, int], IntPoly] = {}

    def power(i: int, e: int) -> IntPoly:
        got = powers.get((i, e))
        if got is None:
            got = rows[i] if e == 1 else _mul(power(i, e - 1), rows[i])
            powers[(i, e)] = got
        return got

    result: IntPoly = {}
    for u, c in f.items():
        term = {(0,) * n: c}
        for i, e in enumerate(u):
            if e:
                term = _mul(term, power(i, e))
        for w, v in term.items():
            result[w] = result.get(w, 0) + v
    return {w: c for w, c in result.items() if c}


def _integer_generators(ideal_or_polys,
                        ring: RingSpec | None) -> tuple[list[IntPoly], RingSpec]:
    """Nonzero homogeneous generators as integer polynomials, and their ring."""
    if isinstance(ideal_or_polys, MonomialIdeal):
        return [{g: 1} for g in ideal_or_polys.gens], ideal_or_polys.ring
    polys = list(ideal_or_polys)
    if ring is None:
        if not polys:
            raise ValueError("need a ring for an empty generator list")
        ring = RingSpec(polys[0].n)
    for i, p in enumerate(polys, 1):
        if not p.is_homogeneous():
            raise InvalidArgument(f"gin needs homogeneous generators, got generator {i} "
                                  f"with terms of degrees {sorted({sum(u) for u in p.terms})}")
    return [_integral(p)[0] for p in polys if not p.is_zero()], ring


def gin(ideal_or_polys, ring: RingSpec | None = None, trials: int = 3,
        seed: int = 0, bound: int = 1000) -> MonomialIdeal:
    """Generic initial ideal in reverse-lex order.

    A strongly stable monomial ideal I is its own gin, over Q: a generic
    change factors into a lower-triangular one, which fixes the Borel-fixed
    I, and a unitriangular one, X_i -> X_i + (later variables).  That maps
    each monomial m to m plus monomials m*x_i/x_j with i > j, all smaller
    than m in every order with x_1 > ... > x_n, so it keeps every leading
    term: in(g(I)) contains I, and with the same Hilbert function equals I.
    Other input takes `_gin_trials`.  The generators must be homogeneous.
    """
    if trials < 2:
        raise InvalidArgument(f"trials must be at least 2, got {trials}")
    if bound < 1:
        raise InvalidArgument(f"bound must be at least 1, got {bound}")
    if isinstance(ideal_or_polys, MonomialIdeal) and is_strongly_stable(ideal_or_polys):
        return ideal_or_polys
    return _gin_trials(ideal_or_polys, ring, trials, seed, bound)


def _gin_trials(ideal_or_polys, ring: RingSpec | None = None, trials: int = 3,
                seed: int = 0, bound: int = 1000) -> MonomialIdeal:
    """gin by independent random trials, which must agree on a strongly
    stable ideal; either failure is bad luck in the coordinates and raises
    `UnluckyCoordinates`.  Runs on strongly stable input too, for tests."""
    gens, ring = _integer_generators(ideal_or_polys, ring)
    if not gens:
        return MonomialIdeal(ring)
    keys = _OrderKeys(DEGREVLEX)
    results = []
    trial_seeds = [f"{seed}:{t}" for t in range(trials)]
    for ts in trial_seeds:
        change = random_coordinate_change(ring, ts, bound)
        moved = [_substitute(f, change) for f in gens]
        results.append(MonomialIdeal(ring, tuple(e[0] for e in _groebner(moved, keys))))
    if any(r != results[0] for r in results[1:]):
        raise UnluckyCoordinates("coordinate trials disagree", tuple(trial_seeds))
    out = results[0]
    if not is_strongly_stable(out):
        # every trial hit the same special coordinates
        raise UnluckyCoordinates(f"initial ideal {out} is not strongly stable",
                                 tuple(trial_seeds))
    return out
