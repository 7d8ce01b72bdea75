"""Buchberger completion over Q with `Fraction` coefficients, kept as the
oracle for the library's fraction-free integer core (``lexlab.groebner``).

Every polynomial here is a `Poly` and every reduction step divides by a
leading coefficient, so it shares no arithmetic with the integer core.  It
makes the same choices (pair selection, coprime and chain criteria,
inter-reduction, the final input-reduces-to-zero check), so its reduced
bases and generic initial ideals must equal the library's exactly.
"""

from fractions import Fraction

from lexlab import DEGREVLEX, MonomialIdeal, Poly, RingSpec, TermOrder
from lexlab.errors import InternalInconsistency, UnluckyCoordinates
from lexlab.groebner import CoordinateChange, GBasis, initial_ideal, random_coordinate_change
from lexlab.ideals import is_strongly_stable
from lexlab.ring import Exp, monomial_divides, monomial_lcm, monomial_mul, total_degree


def monomial_quotient(u: Exp, v: Exp) -> Exp:
    """Exact quotient u / v; v must divide u."""
    if not monomial_divides(v, u):
        raise ValueError("quotient of non-divisible monomials")
    return tuple(a - b for a, b in zip(u, v))


def spoly(f: Poly, g: Poly, order: TermOrder) -> Poly:
    lmf, lcf = f.leading(order)
    lmg, lcg = g.leading(order)
    lcm = monomial_lcm(lmf, lmg)
    return (f.term_multiplied(monomial_quotient(lcm, lmf), Fraction(1) / lcf)
            - g.term_multiplied(monomial_quotient(lcm, lmg), Fraction(1) / lcg))


def normal_form(f: Poly, basis, order: TermOrder) -> Poly:
    """Full remainder of f on division by the basis (head and tail reduced)."""
    leads = [(g.leading(order)[0], g) for g in basis]
    remainder: dict[Exp, Fraction] = {}
    work = Poly(f.n, dict(f.terms))
    while not work.is_zero():
        lm, lc = work.leading(order)
        for lmg, g in leads:
            if monomial_divides(lmg, lm):
                lcg = g.terms[lmg]
                work = work - g.term_multiplied(monomial_quotient(lm, lmg), lc / lcg)
                break
        else:
            remainder[lm] = lc
            work = Poly(work.n, {u: c for u, c in work.terms.items() if u != lm})
    return Poly(f.n, remainder)


def buchberger(gens, order: TermOrder, ring: RingSpec | None = None) -> GBasis:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    polys = [p.primitive() for p in gens if not p.is_zero()]
    if ring is None:
        if not polys:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = RingSpec(polys[0].n)
    basis: list[Poly] = []
    for p in polys:
        r = normal_form(p, basis, order) if basis else p
        if not r.is_zero():
            basis.append(r.primitive())
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed: set[tuple[int, int]] = set()
    while pairs:
        lead = [g.leading(order)[0] for g in basis]

        def pair_key(p):
            lcm = monomial_lcm(lead[p[0]], lead[p[1]])
            return (total_degree(lcm), order.key(lcm))

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        processed.add((i, j))
        lcm = monomial_lcm(lead[i], lead[j])
        if lcm == monomial_mul(lead[i], lead[j]):
            continue  # coprime leading terms
        chained = False
        for k in range(len(basis)):
            if k in (i, j) or not monomial_divides(lead[k], lcm):
                continue
            a, b = tuple(sorted((i, k))), tuple(sorted((k, j)))
            if a in processed and b in processed:
                chained = True
                break
        if chained:
            continue
        r = normal_form(spoly(basis[i], basis[j], order), basis, order)
        if r.is_zero():
            continue
        basis.append(r.primitive())
        new = len(basis) - 1
        pairs.update((t, new) for t in range(new))
    reduced = _reduce_basis(basis, order)
    final = GBasis(ring, order, tuple(reduced))
    for p in polys:
        if not normal_form(p, final.elements, order).is_zero():
            raise InternalInconsistency("an input generator does not reduce to zero")
    return final


def _reduce_basis(basis, order: TermOrder) -> list[Poly]:
    lead = [g.leading(order)[0] for g in basis]
    minimal = [g for i, g in enumerate(basis)
               if not any(j != i and monomial_divides(lead[j], lead[i])
                          and (lead[j] != lead[i] or j < i)
                          for j in range(len(basis)))]
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1:]
            r = normal_form(minimal[i], others, order)
            if r.is_zero():
                minimal.pop(i)
                changed = True
                break
            if r != minimal[i]:
                minimal[i] = r.primitive()
                changed = True
    out = [g.monic(order) for g in minimal]
    out.sort(key=lambda g: order.key(g.leading(order)[0]), reverse=True)
    return out


def apply_change(p: Poly, change: CoordinateChange) -> Poly:
    """Substitute X_i -> sum_j M[i][j] X_j."""
    n = p.n
    rows = [Poly(n, {tuple(1 if t == j else 0 for t in range(n)): change.matrix[i][j]
                     for j in range(n) if change.matrix[i][j]})
            for i in range(n)]
    powers: dict[tuple[int, int], Poly] = {}

    def power(i: int, e: int) -> Poly:
        got = powers.get((i, e))
        if got is None:
            got = Poly.constant(n, 1) if e == 0 else power(i, e - 1) * rows[i]
            powers[(i, e)] = got
        return got

    result = Poly.zero(n)
    for u, c in p.terms.items():
        term = Poly.constant(n, c)
        for i, e in enumerate(u):
            if e:
                term = term * power(i, e)
        result = result + term
    return result


def gin(ideal_or_polys, ring: RingSpec | None = None, trials: int = 3, seed: int = 0,
        bound: int = 1000) -> MonomialIdeal:
    """The library's `gin` recipe (same trial seeds and matrices) on the
    oracle's substitution and Buchberger.  Polynomial generators need their
    ring and must be homogeneous."""
    if isinstance(ideal_or_polys, MonomialIdeal):
        ring = ideal_or_polys.ring
        polys = [Poly.monomial(g) for g in ideal_or_polys.gens]
    else:
        polys = [p for p in ideal_or_polys if not p.is_zero()]
    if not polys:
        return MonomialIdeal(ring)
    results = []
    trial_seeds = [f"{seed}:{t}" for t in range(trials)]
    for ts in trial_seeds:
        change = random_coordinate_change(ring, ts, bound)
        moved = [apply_change(p, change) for p in polys]
        results.append(initial_ideal(buchberger(moved, DEGREVLEX, ring)))
    if any(r != results[0] for r in results[1:]):
        raise UnluckyCoordinates("coordinate trials disagree", tuple(trial_seeds))
    out = results[0]
    if not is_strongly_stable(out):
        # every trial hit the same special coordinates
        raise UnluckyCoordinates(f"initial ideal {out} is not strongly stable",
                                 tuple(trial_seeds))
    return out
