"""Buchberger completion over Q with `Fraction` coefficients, kept as the
oracle for the library's fraction-free integer core (``lexlab.groebner``).

A polynomial here is a dict from exponent tuples to nonzero `Fraction`s;
`Poly` is only what the public functions take and give back.  Every
reduction step divides by a leading coefficient, so the oracle shares no
arithmetic with the integer core.  Nor does it share the core's
bookkeeping: it picks each pair by a `min` over a set of open pairs where
the core pops a heap, and it inter-reduces every basis, also in the gin
trials, which the core's trials skip because they read only leading
monomials.  Both use the coprime and chain criteria and the final
input-reduces-to-zero check.  A reduced Groebner basis and an initial
ideal are unique, whatever the pair order and whether or not the basis
was inter-reduced, so its reduced bases and generic initial ideals must
equal the library's exactly.
"""

from fractions import Fraction
from math import gcd, lcm

from lexlab import DEGREVLEX, MonomialIdeal, Poly, RingSpec, TermOrder
from lexlab.errors import InternalInconsistency, UnluckyCoordinates
from lexlab.groebner import CoordinateChange, GBasis, random_coordinate_change
from lexlab.ideals import is_strongly_stable
from lexlab.ring import Exp, monomial_divides, monomial_lcm, monomial_mul, total_degree

Terms = dict[Exp, Fraction]


def monomial_quotient(u: Exp, v: Exp) -> Exp:
    """Exact quotient u / v; v must divide u."""
    if not monomial_divides(v, u):
        raise ValueError("quotient of non-divisible monomials")
    return tuple(a - b for a, b in zip(u, v))


def subtract(f: Terms, c, q: Exp, g: Terms) -> Terms:
    """f - c * x^q * g, as a new dict."""
    out = dict(f)
    for u, d in g.items():
        w = monomial_mul(u, q)
        out[w] = out.get(w, 0) - c * d
        if not out[w]:
            del out[w]
    return out


def multiply(f: Terms, g: Terms) -> Terms:
    out: Terms = {}
    for u, c in f.items():
        out = subtract(out, -c, u, g)
    return out


def primitive(f: Terms) -> Terms:
    """f over its content: coprime integer coefficients, positive on the
    lex-largest monomial."""
    if not f:
        return f
    content = Fraction(gcd(*(c.numerator for c in f.values())),
                       lcm(*(c.denominator for c in f.values())))
    if f[max(f)] < 0:
        content = -content
    return {u: c / content for u, c in f.items()}


def monic(f: Terms, order: TermOrder) -> Terms:
    lc = f[_leading(f, order)]
    return {u: c / lc for u, c in f.items()}


def _leading(f: Terms, order: TermOrder) -> Exp:
    return max(f, key=order.key)


def _spoly(f: Terms, g: Terms, order: TermOrder) -> Terms:
    lf, lg = _leading(f, order), _leading(g, order)
    lead = monomial_lcm(lf, lg)
    scaled_f = subtract({}, -1 / f[lf], monomial_quotient(lead, lf), f)
    return subtract(scaled_f, 1 / g[lg], monomial_quotient(lead, lg), g)


def spoly(f: Poly, g: Poly, order: TermOrder) -> Poly:
    """x^(L-lf) f / lcf - x^(L-lg) g / lcg."""
    return Poly(f.n, _spoly(f.terms, g.terms, order))


def _remainder(f: Terms, basis: list[Terms], order: TermOrder) -> Terms:
    leads = [(_leading(g, order), g) for g in basis]
    remainder: Terms = {}
    while f:
        lm = _leading(f, order)
        lc = f[lm]
        for lmg, g in leads:
            if monomial_divides(lmg, lm):
                f = subtract(f, lc / g[lmg], monomial_quotient(lm, lmg), g)
                break
        else:
            remainder[lm] = lc
            f = {u: c for u, c in f.items() if u != lm}
    return remainder


def normal_form(f: Poly, basis, order: TermOrder) -> Poly:
    """Full remainder of f on division by the basis (head and tail reduced)."""
    return Poly(f.n, _remainder(f.terms, [g.terms for g in basis], order))


def buchberger(gens, order: TermOrder, ring: RingSpec | None = None) -> GBasis:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    gens = [p for p in gens if not p.is_zero()]
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = RingSpec(gens[0].n)
    reduced = _groebner([p.terms for p in gens], order)
    return GBasis(ring, order, tuple(Poly(ring.n, g) for g in reduced))


def _groebner(polys: list[Terms], order: TermOrder) -> list[Terms]:
    """Reduced monic basis of the ideal generated by nonzero polys."""
    polys = [primitive(p) for p in polys]
    basis: list[Terms] = []
    for p in polys:
        r = _remainder(p, basis, order)
        if r:
            basis.append(primitive(r))
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed: set[tuple[int, int]] = set()
    while pairs:
        lead = [_leading(g, order) for g in basis]

        def pair_key(p):
            lcm_ij = monomial_lcm(lead[p[0]], lead[p[1]])
            return (total_degree(lcm_ij), order.key(lcm_ij))

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        processed.add((i, j))
        lcm_ij = monomial_lcm(lead[i], lead[j])
        if lcm_ij == monomial_mul(lead[i], lead[j]):
            continue  # coprime leading terms
        if any(k not in (i, j) and monomial_divides(lead[k], lcm_ij)
               and tuple(sorted((i, k))) in processed and tuple(sorted((k, j))) in processed
               for k in range(len(basis))):
            continue  # chain criterion
        r = _remainder(_spoly(basis[i], basis[j], order), basis, order)
        if r:
            basis.append(primitive(r))
            pairs.update((t, len(basis) - 1) for t in range(len(basis) - 1))
    reduced = _reduce_basis(basis, order)
    if any(_remainder(p, reduced, order) for p in polys):
        raise InternalInconsistency("an input generator does not reduce to zero")
    return reduced


def _reduce_basis(basis: list[Terms], order: TermOrder) -> list[Terms]:
    lead = [_leading(g, order) for g in basis]
    minimal = [g for i, g in enumerate(basis)
               if not any(j != i and monomial_divides(lead[j], lead[i])
                          and (lead[j] != lead[i] or j < i)
                          for j in range(len(basis)))]
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            r = _remainder(minimal[i], minimal[:i] + minimal[i + 1:], order)
            if not r:
                minimal.pop(i)
                changed = True
                break
            if r != minimal[i]:
                minimal[i] = primitive(r)
                changed = True
    out = [monic(g, order) for g in minimal]
    out.sort(key=lambda g: order.key(_leading(g, order)), reverse=True)
    return out


def _substitute(f: Terms, change: CoordinateChange) -> Terms:
    n = len(change.matrix)
    forms = [{tuple(int(t == j) for t in range(n)): Fraction(m) for j, m in enumerate(row) if m}
             for row in change.matrix]
    out: Terms = {}
    for u, c in f.items():
        term = {(0,) * n: c}
        for i, e in enumerate(u):
            for _ in range(e):
                term = multiply(term, forms[i])
        out = subtract(out, -1, (0,) * n, term)
    return out


def apply_change(p: Poly, change: CoordinateChange) -> Poly:
    """Substitute X_i -> sum_j M[i][j] X_j."""
    return Poly(p.n, _substitute(p.terms, change))


def gin(ideal_or_polys, ring: RingSpec | None = None, trials: int = 3, seed: int = 0,
        bound: int = 1000) -> MonomialIdeal:
    """The library's `gin` recipe (same trial seeds and matrices) on the
    oracle's substitution and Buchberger.  Polynomial generators need their
    ring and must be homogeneous."""
    if isinstance(ideal_or_polys, MonomialIdeal):
        ring = ideal_or_polys.ring
        polys = [{g: Fraction(1)} for g in ideal_or_polys.gens]
    else:
        polys = [p.terms for p in ideal_or_polys if not p.is_zero()]
    if not polys:
        return MonomialIdeal(ring)
    results = []
    trial_seeds = [f"{seed}:{t}" for t in range(trials)]
    for ts in trial_seeds:
        change = random_coordinate_change(ring, ts, bound)
        basis = _groebner([_substitute(p, change) for p in polys], DEGREVLEX)
        results.append(MonomialIdeal(ring, tuple(_leading(g, DEGREVLEX) for g in basis)))
    if any(r != results[0] for r in results[1:]):
        raise UnluckyCoordinates("coordinate trials disagree", tuple(trial_seeds))
    out = results[0]
    if not is_strongly_stable(out):
        # every trial hit the same special coordinates
        raise UnluckyCoordinates(f"initial ideal {out} is not strongly stable",
                                 tuple(trial_seeds))
    return out
