import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (brute_ideal_dim, brute_quotient_dim, numerator_from_values,
                     oracle_families, proper_monomial_ideals, random_ideal)
from hilbert_oracle import (_interpolate, _numerator_inclusion_exclusion,
                            _numerator_unit_pivot, dimension_and_multiplicity_by_division,
                            interpolated_polynomial, macaulay_rep, values_by_binomial_sums)
from lex_oracle import hilbert_polynomial_of

from lexlab import (MonomialIdeal, RingSpec, all_strongly_stable, dimension, hilbert,
                    hilbert_function, hilbert_numerator, hilbert_series, is_strongly_stable,
                    multiplicity)
from lexlab.errors import InternalInconsistency
from lexlab.gotzmann import _count_after, _lex_segments, lex_ideal
from lexlab.hilbert import (_numerator_pivot, eliahou_kervaire, hilbert_values, poly_eval,
                            polynomial_differences, values_from_numerator)
from lexlab.ring import enumerate_monomials

R2 = RingSpec(2)
R3 = RingSpec(3)
R4 = RingSpec(4)
EXAMPLE = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 2), (0, 1, 2)))
EXAMPLE_LEX = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0),
                                 (0, 2, 1), (0, 1, 2)))
TWO_PLANES = MonomialIdeal(R4, ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))


def test_hilbert_function_examples():
    assert [hilbert_function(EXAMPLE, d) for d in range(6)] == [1, 3, 3, 1, 1, 1]
    assert hilbert_function(MonomialIdeal(R3), 4) == 15
    assert [hilbert_function(EXAMPLE_LEX, d) for d in range(6)] == [1, 3, 3, 1, 1, 1]


def test_hilbert_function_matches_brute_force():
    for d in range(9):
        assert hilbert_function(EXAMPLE, d) == brute_quotient_dim(EXAMPLE, d)


def test_hilbert_function_matches_the_value_expansion_on_families():
    for n in range(1, 6):
        for I in all_strongly_stable(RingSpec(n), 3):
            values = values_from_numerator(hilbert_numerator(I), n, 12)
            assert [hilbert_function(I, d) for d in range(13)] == values, I


def test_hilbert_function_in_a_far_degree_is_read_from_the_numerator(monkeypatch):
    # the value is one sum over the numerator's terms; expanding every
    # value up to degree 10^9 would take minutes and gigabytes, so the
    # expansion is refused here
    def refuse(*args):
        raise AssertionError("hilbert_function expanded the values")

    monkeypatch.setattr(hilbert, "hilbert_values", refuse)
    monkeypatch.setattr(hilbert, "values_from_numerator", refuse)
    t0 = time.perf_counter()
    far = [hilbert_function(I, 10**9) for I in (EXAMPLE, TWO_PLANES, MonomialIdeal(R3))]
    elapsed = time.perf_counter() - t0
    assert far == [1, 2 * 10**9 + 2, comb(10**9 + 2, 2)]
    assert elapsed < 1, elapsed


def test_strategies_agree_with_enumeration():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(2, 4)
        I = random_ideal(rng, RingSpec(n), max_gens=5, max_deg=4)
        for d in range(7):
            brute = brute_quotient_dim(I, d)
            assert hilbert_function(I, d) == brute
            oracle = _numerator_inclusion_exclusion(n, I.gens)
            assert values_from_numerator(oracle, n, d)[d] == brute


def test_values_from_numerator_matches_double_loop():
    rng = random.Random(91)
    for _ in range(200):
        n, upto = rng.randint(1, 5), rng.randint(0, 12)
        num = [rng.choice([0, 0, 0, rng.randint(-5, 5)]) for _ in range(rng.randint(0, 15))]
        plain = [sum(c * comb(d - k + n - 1, n - 1) for k, c in enumerate(num) if k <= d)
                 for d in range(upto + 1)]
        assert values_from_numerator(num, n, upto) == plain, (num, n, upto)


def test_running_sums_match_binomial_sum_oracle():
    rng = random.Random(1401)
    for n in range(1, 6):
        for _ in range(40):
            num = [rng.randint(-9, 9) for _ in range(rng.randint(0, 30))]
            assert (values_from_numerator(num, n, 199)
                    == values_by_binomial_sums(num, n, 199)), (num, n)


def test_numerator_example():
    # derive expected numerator from enumerated values, independently
    values = [brute_quotient_dim(EXAMPLE, d) for d in range(12)]
    expected = numerator_from_values(values, 3)
    assert expected == (1, 0, -3, 0, 4, -2)
    assert hilbert_numerator(EXAMPLE) == expected
    assert _numerator_inclusion_exclusion(3, EXAMPLE.gens) == expected


def test_numerator_principal():
    assert hilbert_numerator(MonomialIdeal(R2, ((1, 0),))) == (1, -1)
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        e = [0] * n
        for _ in range(rng.randint(1, 5)):
            e[rng.randrange(n)] += 1
        I = MonomialIdeal(RingSpec(n), (tuple(e),))
        expected = [1] + [0] * (sum(e) - 1) + [-1]
        assert hilbert_numerator(I) == tuple(expected)


def test_hilbert_series_two_planes():
    data = hilbert_series(TWO_PLANES, 8)
    assert data.polynomial == (Fraction(2), Fraction(2))      # P(X) = 2X + 2
    for d in range(1, 9):
        assert data.values[d] == 2 * d + 2 == brute_quotient_dim(TWO_PLANES, d)


def test_hilbert_series_window_validation():
    # a window below max generator degree + n only shortens the value table
    assert hilbert_series(EXAMPLE, 3).values == (1, 3, 3, 1)
    with pytest.raises(ValueError):
        hilbert_series(EXAMPLE, -1)
    data = hilbert_series(EXAMPLE, 6)
    assert data.values == (1, 3, 3, 1, 1, 1, 1)
    assert data.d0 == 5
    for d in range(data.d0, len(data.values)):
        assert data.poly_value(d) == data.values[d]


def test_hilbert_series_evaluates_the_polynomial_at_n_degrees(monkeypatch):
    # P and H agree everywhere from d0 on once they agree at d0, ..., d0 + n - 1,
    # so a window of 100,000 degrees costs no more evaluations than a small one
    calls = []

    def counting(p, x):
        calls.append(x)
        return poly_eval(p, x)

    monkeypatch.setattr(hilbert, "poly_eval", counting)
    data = hilbert_series(EXAMPLE, 100000)
    assert calls == [5, 6, 7]
    assert len(data.values) == 100001 and data.values[-1] == 1


def test_hilbert_series_expands_only_the_window(monkeypatch):
    drawn = []

    def counting(num, n):
        for v in hilbert_values(num, n):
            drawn.append(v)
            yield v

    monkeypatch.setattr(hilbert, "hilbert_values", counting)
    data = hilbert_series(MonomialIdeal(R2, ((10**6, 0),)), 3)
    assert len(drawn) <= 4
    assert (data.values, data.polynomial, data.d0) == ((1, 2, 3, 4), (10**6,), 10**6)


@pytest.mark.parametrize("where", [0, -1])
def test_the_n_degree_check_catches_a_wrong_polynomial(monkeypatch, where):
    # one more in D^0 P(0) or D^(n-1) P(0) adds C(X, k), which is positive
    # at d0 + n - 1 >= k, so the check at d0, ..., d0 + n - 1 must fail
    def off_by_one(num, n):
        diffs = polynomial_differences(num, n)
        diffs[where] += 1
        return diffs

    sample = _dimension_sample() + [MonomialIdeal(RingSpec(n)) for n in range(1, 6)]
    assert sum(I.ring.n == 1 and not I.gens for I in sample) == 1
    assert sum(I.ring.n == 1 for I in sample) > 100
    assert sum(dimension(I) == 0 for I in sample) > 300
    monkeypatch.setattr(hilbert, "polynomial_differences", off_by_one)
    for I in list(oracle_families()) + sample:
        with pytest.raises(InternalInconsistency):
            hilbert_series(I)


def test_dimension_and_multiplicity_examples():
    assert (dimension(EXAMPLE), multiplicity(EXAMPLE)) == (1, 1)
    x5 = MonomialIdeal(R2, ((5, 0),))
    assert (dimension(x5), multiplicity(x5)) == (1, 5)
    assert (dimension(TWO_PLANES), multiplicity(TWO_PLANES)) == (2, 2)
    assert dimension(MonomialIdeal(R3)) == 3
    with pytest.raises(ValueError):
        dimension(MonomialIdeal(R3, ((0, 0, 0),)))


def _dimension_sample():
    """1,200 seeded random monomial ideals in 1-5 variables, a third of them
    made artinian by a pure power of every variable."""
    rng = random.Random(3601)
    sample = []
    for _ in range(1200):
        I = random_ideal(rng, RingSpec(rng.randint(1, 5)), max_gens=6, max_deg=5)
        if rng.random() < 1 / 3:
            powers = tuple(tuple(rng.randint(1, 6) if t == i else 0 for t in range(I.ring.n))
                           for i in range(I.ring.n))
            I = MonomialIdeal(I.ring, I.gens + powers)
        sample.append(I)
    return sample


def test_dimension_and_multiplicity_match_the_division_oracle():
    family = list(oracle_families())
    sample = _dimension_sample()
    for I in family + sample:
        expected = dimension_and_multiplicity_by_division(hilbert_numerator(I), I.ring.n)
        assert (dimension(I), multiplicity(I)) == expected, I
    assert len(family) == 2907 and len(sample) == 1200
    artinian = sum(dimension(I) == 0 for I in sample)
    stable = sum(is_strongly_stable(I) for I in sample)
    assert artinian > 300 and len(sample) - stable > 600, (artinian, stable)


def test_polynomial_differences_match_the_rational_polynomial():
    # D^k P(0) = sum_i (-1)^(k - i) C(k, i) P(i), with P built one shifted
    # binomial per numerator term in Fractions
    rng = random.Random(3602)
    for n in range(1, 7):
        for _ in range(60):
            num = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(rng.randint(0, 20))]
            p = hilbert_polynomial_of(num, n)
            expected = [sum((-1) ** (k - i) * comb(k, i) * poly_eval(p, i) for i in range(k + 1))
                        for k in range(n)]
            assert polynomial_differences(num, n) == expected, (num, n)


def test_multiplicity_invariant_under_lex():
    rng = random.Random(77)
    for _ in range(15):
        I = random_ideal(rng, R3)
        if I.is_unit:
            continue
        assert multiplicity(I) == multiplicity(lex_ideal(I))


def _all_macaulay_reps(a, d, kmax=40):
    """Exhaustive search for decompositions a = sum C(k_i, i), k_d > ... >= i >= 1."""
    found = []

    def rec(rest, i, upper, ks):
        if rest == 0:
            found.append(tuple(ks))
            return
        if i < 1:
            return
        for k in range(i, upper):
            c = comb(k, i)
            if c <= rest:
                rec(rest - c, i - 1, k, ks + [(k, i)])

    rec(a, d, kmax, [])
    return found


def test_macaulay_rep_examples():
    rep = macaulay_rep(3, 2)
    assert rep.binomials == ((3, 2),)
    assert rep.growth() == 4
    rep = macaulay_rep(5, 2)
    assert rep.binomials == ((3, 2), (2, 1))
    assert rep.growth() == 7
    assert macaulay_rep(0, 3).binomials == ()
    assert macaulay_rep(0, 3).growth() == 0


def test_macaulay_rep_unique_and_greedy():
    for d in range(1, 5):
        for a in range(1, 31):
            reps = _all_macaulay_reps(a, d)
            assert len(reps) == 1, (a, d, reps)
            assert macaulay_rep(a, d).binomials == reps[0]


def _walk_bounds(n, num, top):
    """(d, H(d - 1), bound) for each degree d >= 2 of the lex walk over the
    values of num, up to its stop: the first degree above top that adds no
    generator.  The walk yields bound - H(d) generators in degree d."""
    values = []

    def recorded():
        for value in hilbert_values(num, n):
            values.append(value)
            yield value

    for d, new in enumerate(_lex_segments(n, recorded())):
        if d >= 2:
            yield d, values[d - 1], len(new) + values[d]
        if d > top and not new:
            return


def test_walk_bound_matches_the_representation():
    for n in range(1, 6):
        for d in range(7):
            monomials = enumerate_monomials(n, d)
            for rank, u in enumerate(monomials):
                assert _count_after(u) == len(monomials) - 1 - rank, u
    walks = {}
    for n, top in ((3, 5), (4, 4), (5, 3)):
        for I in all_strongly_stable(RingSpec(n), top):
            if not I.is_zero:
                key = n, hilbert_numerator(I)
                walks[key] = max(walks.get(key, 0), I.max_generator_degree())
    # walks past degree 300 cross into the tail where H(d - 1) <= d - 1
    long_walks = [MonomialIdeal(RingSpec(2), ((160, 0), (0, 160))),
                  MonomialIdeal(RingSpec(3), ((18, 0, 0), (0, 18, 0)))]
    for I in long_walks:
        walks[I.ring.n, hilbert_numerator(I)] = I.max_generator_degree()
    tail = 0
    for (n, num), top in walks.items():
        for d, previous, bound in _walk_bounds(n, num, top):
            assert bound == macaulay_rep(previous, d - 1).growth(), (n, num, d)
            tail += d > 300 and previous <= d - 1
    assert tail > 0


def test_growth_bound_and_ideal_growth():
    rng = random.Random(13)
    for _ in range(25):
        I = random_ideal(rng, R3, max_gens=5, max_deg=4)
        if I.is_unit:
            continue
        for d in range(1, 7):
            h = brute_quotient_dim(I, d)
            if h:
                assert brute_quotient_dim(I, d + 1) <= macaulay_rep(h, d).growth()
            # the ideal's graded piece never shrinks under multiplication by m
            assert brute_ideal_dim(I, d + 1) >= len({
                tuple(e + (1 if t == i else 0) for t, e in enumerate(u))
                for u in _ideal_monomials(I, d) for i in range(I.ring.n)})


def _ideal_monomials(I, d):
    from helpers import all_exponents, divides
    return [e for e in all_exponents(I.ring.n, d)
            if any(divides(g, e) for g in I.gens)]


def test_numerator_strategies_agree_randomly():
    rng = random.Random(4)
    for _ in range(30):
        I = random_ideal(rng, R4, max_gens=6, max_deg=5)
        assert hilbert_numerator(I) == _numerator_inclusion_exclusion(4, I.gens)


@st.composite
def pivot_ideals(draw):
    # exponents up to 12 keep the unit-step oracle's recursion shallow
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 12)] * n), min_size=1, max_size=8))
    return MonomialIdeal(RingSpec(n), tuple(gens))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pivot_ideals())
def test_bigatti_pivot_matches_unit_step_oracle(I):
    assert _numerator_pivot(I.ring.n, I.gens) == _numerator_unit_pivot(I.ring.n, I.gens), I


def test_bigatti_pivot_matches_unit_step_oracle_on_families():
    for I in oracle_families():
        assert hilbert_numerator(I) == _numerator_unit_pivot(I.ring.n, I.gens), I


@pytest.mark.parametrize("n, max_degree", [(3, 5), (4, 4), (5, 3)])
def test_eliahou_kervaire_matches_pivot_on_families(n, max_degree):
    # every member is strongly stable: lex_ideal reads its numerator by
    # Eliahou-Kervaire, and the answer checks read it by the pivot
    for I in all_strongly_stable(RingSpec(n), max_degree):
        assert eliahou_kervaire(I.gens) == hilbert_numerator(I), I


def test_bigatti_pivot_on_large_exponents():
    # exponents far beyond the depth the unit-step recursion could reach
    rng = random.Random(23)
    ideals = [MonomialIdeal(R2, ((600, 0), (599, 1), (0, 700)))]
    for n in (2, 3, 4):
        for _ in range(5):
            gens = tuple(tuple(rng.choice((0, rng.randint(1, 2000))) for _ in range(n))
                         for _ in range(rng.randint(2, 9)))
            ideals.append(MonomialIdeal(RingSpec(n), gens))
    for I in ideals:
        assert hilbert_numerator(I) == _numerator_inclusion_exclusion(I.ring.n, I.gens), I


# -- exactness: no float in any Hilbert data -------------------------------------


@st.composite
def monomial_ideals(draw):
    """Up to five generators of degree <= 3 each in 1-4 variables; the zero
    and unit ideals included."""
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return MonomialIdeal(RingSpec(n), tuple(draw(st.lists(exps, max_size=5))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(monomial_ideals())
def test_hilbert_data_is_exact(ideal):
    data = hilbert_series(ideal)
    assert all(type(v) is int for v in data.values + data.numerator + (data.d0,))
    assert all(type(c) is Fraction for c in data.polynomial)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-20, 20),
                          st.integers(-50, 50) | st.fractions(-5, 5, max_denominator=7)),
                min_size=1, max_size=6, unique_by=lambda point: point[0]))
def test_interpolate_is_exact(points):
    poly = _interpolate(points)
    assert all(type(c) is Fraction for c in poly)
    assert all(poly_eval(poly, x) == y for x, y in points)


# -- the closed-form Hilbert polynomial against interpolation ----------------------


def test_hilbert_polynomial_matches_interpolation_oracle_on_families():
    checked = 0
    for I in oracle_families():
        poly = hilbert_series(I).polynomial
        assert poly == interpolated_polynomial(I), I
        assert all(type(c) is Fraction for c in poly)
        checked += 1
    assert checked == 4 + 62 + 2429 + 350 + 62   # the zero ideal once per family


@settings(max_examples=200, deadline=None, derandomize=True)
@given(proper_monomial_ideals())
def test_hilbert_polynomial_matches_interpolation_oracle_on_hypothesis_ideals(ideal):
    assert hilbert_series(ideal).polynomial == interpolated_polynomial(ideal)
