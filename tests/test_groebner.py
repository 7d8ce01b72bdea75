import random
from fractions import Fraction
from math import gcd

import groebner_oracle as oracle
import pytest

import lexlab.groebner
from helpers import non_stable_ideals, random_ideal, random_stable_ideal
from hypothesis import given, settings
from hypothesis import strategies as st

from lexlab import (DEGREVLEX, LEX, MonomialIdeal, Poly, RingSpec, buchberger,
                    exchange_property, gin, hilbert_function, initial_ideal,
                    is_strongly_stable, normal_form, parse_ideal, parse_polynomial, parse_ring,
                    saturate)
from lexlab.errors import InternalInconsistency, UnluckyCoordinates
from lexlab.families import all_strongly_stable
from lexlab.groebner import (CoordinateChange, _gin_trials, apply_change,
                             random_coordinate_change)
from lexlab.linalg import fraction_free_rank
from lexlab.ring import enumerate_monomials, monomial_mul


# -- degree dimensions by linear algebra, with no Groebner basis ---------------


def rational_rows_to_int(rows) -> list[list[int]]:
    """Clear denominators row by row and strip common content."""
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        den = 1
        for x in fr:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in fr]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def polynomial_degree_dim(polys, ring: RingSpec, d: int) -> int:
    """dim of the degree-d piece of the ideal generated by homogeneous polys,
    by a rank computation over the monomial basis (no Groebner basis needed)."""
    basis = enumerate_monomials(ring.n, d)
    index = {u: t for t, u in enumerate(basis)}
    rows = []
    for p in polys:
        if p.is_zero():
            continue
        if not p.is_homogeneous():
            raise ValueError("degree dimension needs homogeneous generators")
        e = p.degree()
        if e > d:
            continue
        for m in enumerate_monomials(ring.n, d - e):
            row = [0] * len(basis)
            for u, c in p.terms.items():
                row[index[monomial_mul(u, m)]] = c
            rows.append(row)
    if not rows:
        return 0
    return fraction_free_rank(rational_rows_to_int(rows))


R2 = RingSpec(2)
R3 = RingSpec(3)
R4 = RingSpec(4)
EXAMPLE = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 2), (0, 1, 2)))


def test_buchberger_monomial_input_is_its_own_basis():
    B = buchberger([Poly(2, {(1, 0): 1}), Poly(2, {(0, 1): 1})], DEGREVLEX)
    assert initial_ideal(B) == MonomialIdeal(R2, ((1, 0), (0, 1)))
    assert len(B.elements) == 2


def test_buchberger_hand_example():
    f = parse_polynomial("x^2 - y^2", R2)
    g = parse_polynomial("x*y", R2)
    B = buchberger([f, g], DEGREVLEX)
    assert initial_ideal(B) == MonomialIdeal(R2, ((2, 0), (1, 1), (0, 3)))


def test_buchberger_unit():
    B = buchberger([Poly(2, {(0, 0): 5})], DEGREVLEX)
    assert initial_ideal(B).is_unit
    assert B.elements[0].terms == {(0, 0): 1}


def test_reduced_basis_invariants():
    rng = random.Random(15)
    for _ in range(8):
        polys = [parse_polynomial(t, R2) for t in ("x^2 - y^2", "x*y - y^2")]
        extra = Poly(2, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 3)})
        B = buchberger(polys + [extra], DEGREVLEX)
        leads = B.leading_monomials()
        for i, g in enumerate(B.elements):
            assert g.terms[leads[i]] == 1
            others = B.elements[:i] + B.elements[i + 1:]
            assert normal_form(g, others, DEGREVLEX) == g
        for i in range(len(B.elements)):
            for j in range(i + 1, len(B.elements)):
                s = oracle.spoly(B.elements[i], B.elements[j], DEGREVLEX)
                assert normal_form(s, B.elements, DEGREVLEX).is_zero()


def test_initial_ideal_of_monomial_basis():
    B = buchberger([Poly(3, {g: 1}) for g in EXAMPLE.gens], DEGREVLEX)
    assert initial_ideal(B) == EXAMPLE


def test_hilbert_preservation_polynomial_input():
    f = parse_polynomial("x^2 - y^2", R2)
    g = parse_polynomial("x*y", R2)
    init = initial_ideal(buchberger([f, g], DEGREVLEX))
    for d in range(8):
        from math import comb
        source_dim = polynomial_degree_dim([f, g], R2, d)
        assert comb(d + 1, 1) - source_dim == hilbert_function(init, d)


def test_gin_principal():
    rng = random.Random(1)
    for text, ring, d in (("x^3 + y^3 + z^3 + x*y*z", R3, 3),
                          ("x^2 - 3*y^2", R2, 2)):
        p = parse_polynomial(text, ring)
        G = gin([p], ring=ring, trials=3, seed=0)
        expected = tuple(d if t == 0 else 0 for t in range(ring.n))
        assert G == MonomialIdeal(ring, (expected,))


def test_zero_rows_have_rank_0_and_zero_generators_gin_0():
    assert fraction_free_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert gin([Poly(3, {}), Poly(3, {})], ring=R3) == MonomialIdeal(R3)


def test_gin_of_strongly_stable_is_identity():
    assert gin(EXAMPLE, trials=3, seed=0) == EXAMPLE
    assert _gin_trials(EXAMPLE, trials=3, seed=0) == EXAMPLE


def test_gin_of_strongly_stable_input_runs_no_trial(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a coordinate trial ran")

    monkeypatch.setattr(lexlab.groebner, "random_coordinate_change", no_trial)
    for I in [*all_strongly_stable(R3, 3), *all_strongly_stable(R4, 2)]:
        assert gin(I) is I
    # input that is not strongly stable still takes the trials
    with pytest.raises(AssertionError, match="trial ran"):
        gin(MonomialIdeal(R3, ((1, 1, 0), (1, 0, 1))))


def test_gin_trials_fix_strongly_stable_ideals(monkeypatch):
    # the theorem gin relies on, checked by Buchberger in random coordinates
    r3 = [I for I in all_strongly_stable(R3, 3) if not I.is_zero]
    r4 = [I for I in all_strongly_stable(R4, 3) if not I.is_zero]
    assert (len(r3), len(r4)) == (64, 350)
    changes = []

    def counted(*args):
        changes.append(random_coordinate_change(*args))
        return changes[-1]

    monkeypatch.setattr(lexlab.groebner, "random_coordinate_change", counted)
    checked = r3 + random.Random(18).sample(r4, 48)
    for index, I in enumerate(checked):
        assert _gin_trials(I, seed=index) == I, I
    assert len(changes) == 3 * len(checked)


def test_gin_xy_xz():
    I = MonomialIdeal(R3, ((1, 1, 0), (1, 0, 1)))
    assert gin(I, trials=3, seed=0) == MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0)))


def test_gin_requires_two_trials():
    # EXAMPLE is strongly stable: the argument checks come before the shortcut
    with pytest.raises(ValueError):
        gin(EXAMPLE, trials=1)


def test_gin_idempotent_and_stable():
    rng = random.Random(21)
    for _ in range(5):
        I = random_ideal(rng, R3, max_gens=3, max_deg=3)
        if I.is_unit:
            continue
        G = gin(I, trials=2, seed=0)
        assert is_strongly_stable(G)
        assert _gin_trials(G, trials=2, seed=0) == G
        for d in range(6):
            assert hilbert_function(G, d) == hilbert_function(I, d)


def test_gin_commutes_with_saturation():
    rng = random.Random(33)
    for _ in range(5):
        I = random_ideal(rng, R3, max_gens=3, max_deg=3)
        if I.is_unit:
            continue
        assert gin(saturate(I), trials=2, seed=0) == saturate(gin(I, trials=2, seed=0))


def test_exchange_passes_to_gin():
    rng = random.Random(39)
    for _ in range(6):
        I = random_stable_ideal(rng, R3, max_gens=2, max_deg=3)
        if I.is_unit or I.is_zero:
            continue
        if exchange_property(I).holds:
            assert exchange_property(_gin_trials(I, trials=2, seed=0)).holds


def test_coordinate_change_deterministic():
    a = random_coordinate_change(R3, "0:0")
    b = random_coordinate_change(R3, "0:0")
    assert a == b
    c = random_coordinate_change(R3, "0:1")
    assert a != c


def test_apply_change_identity():
    eye = CoordinateChange(tuple(tuple(1 if i == j else 0 for j in range(3))
                                 for i in range(3)), "id")
    p = parse_polynomial("x^2 - y*z", R3)
    assert apply_change(p, eye) == p


def test_apply_change_degree_preserved():
    rng = random.Random(8)
    change = random_coordinate_change(R3, "t", bound=5)
    for _ in range(5):
        p = Poly(3, {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)): 1})
        q = apply_change(p, change)
        assert q.degree() == p.degree()
        assert q.is_homogeneous() == p.is_homogeneous()


# -- the integer core against the Fraction oracle ----------------------------------


def _random_poly(rng, n, max_deg, max_terms, homogeneous):
    d = rng.randint(1, max_deg)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = d if homogeneous else rng.randint(0, d)
        cuts = sorted(rng.randint(0, e) for _ in range(n - 1))
        u = tuple(b - a for a, b in zip([0] + cuts, cuts + [e]))
        terms[u] = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))
    return Poly(n, terms)


@st.composite
def polynomial_systems(draw):
    # a seed, because hypothesis's own draws favour one-term polynomials
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(2, 4)
    homogeneous = draw(st.booleans())
    gens = [_random_poly(rng, n, 3, 4, homogeneous) for _ in range(rng.randint(1, 4))]
    f = _random_poly(rng, n, 4, 5, False)
    return RingSpec(n), draw(st.sampled_from((LEX, DEGREVLEX))), gens, f


def _all_fractions(p: Poly) -> bool:
    return all(type(c) is Fraction for c in p.terms.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(polynomial_systems())
def test_integer_core_matches_fraction_oracle(system):
    ring, order, gens, f = system
    B = buchberger(gens, order, ring)
    assert B.elements == oracle.buchberger(gens, order, ring).elements
    returned = list(B.elements)
    for basis in (gens, B.elements):
        r = normal_form(f, basis, order)
        assert r == oracle.normal_form(f, basis, order)
        returned.append(r)
    change = random_coordinate_change(ring, "core", bound=9)
    moved = apply_change(f, change)
    assert moved == oracle.apply_change(f, change)
    assert all(_all_fractions(p) for p in returned + [moved])


def test_gin_matches_oracle_on_r3_family():
    members = [I for I in all_strongly_stable(R3, 3) if not I.is_zero]
    assert len(members) == 64
    for index, I in enumerate(members):
        for seed in (index, 1000 + index):
            assert gin(I, seed=seed) == oracle.gin(I, seed=seed), (I, seed)


def _gin_outcome(gin_fn, polys, ring, seed):
    try:
        return gin_fn(polys, ring=ring, seed=seed, bound=1)
    except (UnluckyCoordinates, InternalInconsistency) as err:
        return type(err), str(err)


def test_gin_matches_oracle_on_polynomials_with_small_entries():
    # entries in {-1, 0, 1} make terms cancel under the substitution
    for text, ring in (("x^2 - y^2", R2), ("x^2 - 3*y^2", R2), ("x^2 - y^2, x*y", R2),
                       ("x^2 - y*z, x*y - z^2", R3)):
        polys = [parse_polynomial(t, ring) for t in text.split(", ")]
        for seed in range(8):
            got = _gin_outcome(gin, polys, ring, seed)
            assert got == _gin_outcome(oracle.gin, polys, ring, seed), (text, seed)


# oracle.gin of (x^3, y^3, z^3, w^3) with the default trials and seed; the
# oracle itself takes seconds here, so its answer is written out
FOUR_CUBES_GIN = (
    "x^3, x^2*y, x^2*z^2, x^2*z*w^3, x^2*w^5, x*y^2, x*y*z^2, x*y*z*w^3, x*y*w^5, "
    "x*z^3, x*z^2*w^3, x*z*w^5, x*w^7, y^3, y^2*z^3, y^2*z^2*w, y^2*z*w^3, y^2*w^5, "
    "y*z^4, y*z^3*w, y*z^2*w^3, y*z*w^5, y*w^7, z^5, z^4*w, z^3*w^3, z^2*w^5, z*w^7, w^9")


def test_gin_of_four_cubes():
    ring = parse_ring("x,y,z,w")
    G = gin(parse_ideal("x^3, y^3, z^3, w^3", ring))
    assert G == parse_ideal(FOUR_CUBES_GIN, ring)
    assert len(G.gens) == 29


def test_gin_trials_read_the_leads_of_the_unreduced_basis(monkeypatch):
    # the leads of any Groebner basis generate the initial ideal, so the
    # trials never inter-reduce; buchberger returns the reduced basis
    ideals = [MonomialIdeal(R3, ((1, 1, 0), (1, 0, 1))), *non_stable_ideals()[:40]]
    systems = [[parse_polynomial(t, ring) for t in text.split(", ")]
               for text, ring in (("x^2 - y^2, x*y", R2), ("x^2 - y*z, x*y - z^2", R3),
                                  ("x^3 + y^3 + z^3 + x*y*z", R3))]
    rings = [R2, R3, R3]
    expected = ([_gin_trials(I, seed=k) for k, I in enumerate(ideals)]
                + [_gin_trials(polys, ring, seed=1) for polys, ring in zip(systems, rings)])

    def no_reduction(*args):
        raise AssertionError("a basis was inter-reduced")

    monkeypatch.setattr(lexlab.groebner, "_reduce_basis", no_reduction)
    got = ([_gin_trials(I, seed=k) for k, I in enumerate(ideals)]
           + [_gin_trials(polys, ring, seed=1) for polys, ring in zip(systems, rings)])
    assert got == expected
    assert not any(is_strongly_stable(I) for I in ideals)
    with pytest.raises(AssertionError, match="inter-reduced"):
        buchberger(systems[0], DEGREVLEX)


def test_every_basis_returned_or_read_reduces_the_inputs_to_zero(monkeypatch):
    # a basis that lost an input's remainder leaves that input unreduced: the
    # reduced basis of the hand example ends with x*y, and the unreduced one
    # starts with the first input
    groebner = lexlab.groebner
    reduce_basis, complete = groebner._reduce_basis, groebner._groebner
    hand = [parse_polynomial(t, R2) for t in ("x^2 - y^2", "x*y")]
    monkeypatch.setattr(groebner, "_reduce_basis", lambda *args: reduce_basis(*args)[:-1])
    with pytest.raises(InternalInconsistency, match="does not reduce to zero"):
        buchberger(hand, DEGREVLEX)
    monkeypatch.setattr(groebner, "_reduce_basis", reduce_basis)
    monkeypatch.setattr(groebner, "_groebner", lambda *args: complete(*args)[1:])
    for ideal_or_polys in (EXAMPLE, MonomialIdeal(R3, ((1, 1, 0), (1, 0, 1))), hand):
        with pytest.raises(InternalInconsistency, match="does not reduce to zero"):
            _gin_trials(ideal_or_polys, R2 if ideal_or_polys is hand else None)


def test_a_basis_missing_an_element_fails_buchbergers_criterion(monkeypatch):
    # the reduced basis of (x^2 - y^2, x*y) is y^3, x*y, x^2 - y^2; without
    # y^3 both inputs still reduce to zero, but S(x^2 - y^2, x*y) = -y^3 does not
    groebner = lexlab.groebner
    reduce_basis = groebner._reduce_basis
    hand = [parse_polynomial(t, R2) for t in ("x^2 - y^2", "x*y")]
    assert [g.terms for g in buchberger(hand, DEGREVLEX).elements][0] == {(0, 3): 1}
    monkeypatch.setattr(groebner, "_reduce_basis", lambda *args: reduce_basis(*args)[1:])
    with pytest.raises(InternalInconsistency, match="S-polynomial"):
        buchberger(hand, DEGREVLEX)


def test_gin_rejects_a_bound_below_one():
    with pytest.raises(ValueError):
        gin(EXAMPLE, bound=0)


def test_gin_rejects_non_homogeneous_input():
    for text in ("x^2 - y, x*y", "x^2 - 1"):
        with pytest.raises(ValueError, match="homogeneous"):
            gin(parse_ideal(text, R2), ring=R2)
