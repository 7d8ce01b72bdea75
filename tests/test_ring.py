import random
from fractions import Fraction

import pytest
from helpers import all_exponents, degrevlex_greater, lex_greater, random_monomial

from lexlab import (DEGREVLEX, LEX, DegreeWindow, FamilySpec, GotzmannData, InvalidArgument,
                    LCTable, MonomialIdeal, Poly, RingSpec, TermOrder, borel_move, compare,
                    enumerate_monomials, total_degree)
from lexlab.gotzmann import ExchangeReport, _Walk
from lexlab.groebner import CoordinateChange, GBasis
from lexlab.hilbert import HilbertData


def test_ring_spec_defaults():
    assert RingSpec(3).names == ("x", "y", "z")
    assert RingSpec(5).names == ("X1", "X2", "X3", "X4", "X5")
    with pytest.raises(ValueError):
        RingSpec(0)
    with pytest.raises(ValueError):
        RingSpec(2, ("x", "x"))


def test_monomial_str():
    r = RingSpec(3)
    assert r.monomial_str((2, 1, 3)) == "x^2*y*z^3"
    assert r.monomial_str((0, 0, 0)) == "1"


def test_lex_compare_examples():
    assert compare((2, 0, 0), (1, 1, 0), LEX) == 1        # x^2 > x*y
    assert compare((1, 1, 0), (1, 1, 0), LEX) == 0
    assert compare((1, 1, 0), (1, 1, 0), DEGREVLEX) == 0
    with pytest.raises(ValueError):
        compare((1, 0), (1, 0, 0), LEX)


def test_degrevlex_degree_two_chain():
    # x^2 > xy > y^2 > xz > yz > z^2, against the definition-level comparator
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    for a, b in zip(chain, chain[1:]):
        assert compare(a, b, DEGREVLEX) == 1
    for a in chain:
        for b in chain:
            expected = 1 if degrevlex_greater(a, b) else (-1 if degrevlex_greater(b, a) else 0)
            assert compare(a, b, DEGREVLEX) == expected


def test_lex_matches_definition():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = random_monomial(rng, n, 6, min_deg=0)
        b = random_monomial(rng, n, 6, min_deg=0)
        expected = 1 if lex_greater(a, b) else (-1 if lex_greater(b, a) else 0)
        assert compare(a, b, LEX) == expected


def test_order_multiplicativity():
    rng = random.Random(11)
    for order in (LEX, DEGREVLEX):
        for _ in range(300):
            n = rng.randint(1, 4)
            u = random_monomial(rng, n, 5, min_deg=0)
            v = random_monomial(rng, n, 5, min_deg=0)
            w = random_monomial(rng, n, 5, min_deg=0)
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert compare(u, v, order) == compare(uw, vw, order)


def test_enumerate_monomials_examples():
    assert enumerate_monomials(3, 0) == ((0, 0, 0),)
    assert enumerate_monomials(3, 2, LEX) == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert len(enumerate_monomials(2, 5)) == 6


def test_enumerate_monomials_sorted_and_complete():
    from math import comb
    for order in (LEX, DEGREVLEX):
        for n in range(1, 6):
            for d in range(0, 11):
                monos = enumerate_monomials(n, d, order)
                assert len(monos) == comb(d + n - 1, n - 1)
                assert set(monos) == set(map(tuple, all_exponents(n, d)))
                for a, b in zip(monos, monos[1:]):
                    assert compare(a, b, order) == 1


def test_borel_move():
    assert borel_move((1, 0, 2), 1, 2) == (1, 1, 1)   # xz^2 -> xyz
    assert borel_move((0, 1, 2), 0, 2) == (1, 1, 1)   # yz^2 -> xyz
    with pytest.raises(ValueError):
        borel_move((2, 0, 0), 0, 1)                    # y does not divide x^2
    with pytest.raises(ValueError):
        borel_move((0, 1, 0), 1, 1)


def test_borel_move_preserves_degree():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 5)
        u = random_monomial(rng, n, 6)
        js = [j for j in range(1, n) if u[j]]
        if not js:
            continue
        j = rng.choice(js)
        i = rng.randrange(j)
        assert total_degree(borel_move(u, i, j)) == total_degree(u)


def test_poly_arithmetic():
    f = Poly(2, {(2, 0): 1, (0, 2): -1})
    g = Poly(2, {(1, 1): 1})
    assert (f + g).terms == {(2, 0): 1, (0, 2): -1, (1, 1): 1}
    assert (f - f).is_zero()
    prod = f * g
    assert prod.terms == {(3, 1): 1, (1, 3): -1}
    assert f.degree() == 2
    assert f.is_homogeneous()
    assert not (f + Poly.constant(2, 1)).is_homogeneous()


def test_poly_leading_and_primitive():
    from fractions import Fraction
    f = Poly(2, {(2, 0): Fraction(2, 3), (1, 1): Fraction(4, 3)})
    lm, lc = f.leading(LEX)
    assert lm == (2, 0) and lc == Fraction(2, 3)
    p = f.primitive()
    assert p.terms == {(2, 0): 1, (1, 1): 2}
    assert f.monic(LEX).terms[(2, 0)] == 1


R3 = RingSpec(3)
X, Y = MonomialIdeal(R3, ((1, 0, 0),)), MonomialIdeal(R3, ((0, 1, 0),))
WINDOW = DegreeWindow(-2, 1)

# per value type: constructor arguments, and the same with one field changed
VALUES = [
    (RingSpec, (3, ("x", "y", "z")), (3, ("a", "b", "c"))),
    (TermOrder, ("lex",), ("degrevlex",)),
    (DegreeWindow, (-2, 1), (-2, 2)),
    (FamilySpec, (R3, (1, 3, 5), 2), (R3, (1, 3, 5), 3)),
    (FamilySpec, (R3, X, 2), (R3, Y, 2)),
    (GotzmannData, (3, (1, 0)), (3, (2, 0))),
    (GBasis, (R3, LEX, (Poly.monomial((1, 0, 0)),)),
     (R3, DEGREVLEX, (Poly.monomial((1, 0, 0)),))),
    (CoordinateChange, (((1, 0), (0, 1)), "0"), (((1, 0), (0, 1)), "1")),
    (ExchangeReport, (True, X, X), (True, X, Y)),
    (HilbertData, ((1, 3), (1, -1), (Fraction(1),), 0), ((1, 3), (1, -1), (Fraction(1),), 1)),
    (MonomialIdeal, (R3, ((2, 0, 0), (1, 1, 0))), (R3, ((2, 0, 0), (0, 1, 0)))),
    (_Walk, (R3, (1, -1), 1), (R3, (1, -2), 1)),
    (LCTable, (3, WINDOW, {(0, 0): 1}), (3, WINDOW, {(0, 0): 2})),
]


@pytest.mark.parametrize("cls, args, changed", VALUES,
                         ids=[f"{cls.__name__}-{k}" for k, (cls, _, _) in enumerate(VALUES)])
def test_value_types_compare_by_value_and_are_immutable(cls, args, changed):
    a, b, c = cls(*args), cls(*args), cls(*changed)
    assert a == b and not a != b and a is not b
    assert a != c and not a == c and a != args
    if cls in (GBasis, LCTable):  # a tuple of Polys, a dict of entries: no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b, c}) == 2
    name = "ring" if cls is MonomialIdeal else cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(c, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_walk_key_leaves_out_the_top_degree():
    low, high = _Walk(R3, (1, -1), 1), _Walk(R3, (1, -1), 7)
    assert low == high and hash(low) == hash(high) and len({low, high}) == 1


@pytest.mark.parametrize("build, error, message", [
    (lambda: RingSpec(0), ValueError, "a polynomial ring needs at least one variable"),
    (lambda: RingSpec(2, ("x", "x")), ValueError,
     "expected 2 distinct variable names, got ('x', 'x')"),
    (lambda: TermOrder("grlex"), ValueError, "unknown term order 'grlex'"),
    (lambda: DegreeWindow(2, 1), InvalidArgument, "empty degree window: lo 2 exceeds hi 1"),
    (lambda: FamilySpec(R3, (1, 3), -1), InvalidArgument,
     "max_degree must be at least 0, got -1"),
])
def test_value_type_validation_keeps_its_errors(build, error, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message
