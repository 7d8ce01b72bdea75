import random
import time
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (all_exponents, brute_ideal_dim, brute_quotient_dim,
                     non_stable_ideals, oracle_families, proper_monomial_ideals,
                     random_ideal, random_stable_ideal)
from hilbert_oracle import validate_hilbert_values
from ideals_oracle import _saturate_by_powers
from lex_oracle import _segments_to_ideal as oracle_segments_to_ideal
from lex_oracle import (exchange_by_colon, gotzmann_by_summands, hilbert_polynomial_of,
                        lex_ideal_gotzmann_bound, predict_lc_vanishing)
from window_oracle import lcm_window

from lexlab import (FamilySpec, MacaulayViolation, MonomialIdeal, RingSpec,
                    enumerate_strongly_stable, exchange_property, gotzmann,
                    gotzmann_representation, graded_generator_counts, hilbert, hilbert_series,
                    is_gotzmann, lex_ideal, lex_ideal_from_values,
                    local_cohomology_table, multiplicity, saturate, saturated_lex_generators,
                    strong_stability_witness, verify_main)
from lexlab.families import all_strongly_stable
from lexlab.gotzmann import lex_top_degree
from lexlab.hilbert import (binomial_in_x, eliahou_kervaire, hilbert_numerator, poly_add,
                            values_from_numerator)
from lexlab.reports import VERDICT_CONSISTENT

R2 = RingSpec(2)
R3 = RingSpec(3)
R4 = RingSpec(4)
EXAMPLE = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 2), (0, 1, 2)))
EXAMPLE_LEX = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0),
                                 (0, 2, 1), (0, 1, 2)))
TWO_PLANES = MonomialIdeal(R4, ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))
# quotients with the Hilbert polynomials of the Gotzmann examples
POINT = MonomialIdeal(R3, ((1, 0, 0), (0, 1, 0)))                            # P = 1
FIVE_POINTS = MonomialIdeal(R3, ((1, 0, 0), (0, 5, 0)))                      # P = 5
LINE_AND_POINTS = MonomialIdeal(R3, ((2, 0, 0), (1, 2, 0)))                  # P = X + 3
DOUBLE_LINE = MonomialIdeal(R4, ((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)))  # P = 3X + 1
# TWO_PLANES, the two skew lines xz = xw = yz = yw = 0 in P^3, has P = 2X + 2


# -- lex ideals -----------------------------------------------------------------


def test_lex_ideal_examples():
    assert lex_ideal(EXAMPLE) == EXAMPLE_LEX
    assert lex_ideal(MonomialIdeal(R2, ((1, 1),))) == MonomialIdeal(R2, ((2, 0),))
    principal = MonomialIdeal(R3, ((1, 0, 0),))
    assert lex_ideal(principal) == principal
    assert lex_ideal(MonomialIdeal(R3)).is_zero
    with pytest.raises(ValueError):
        lex_ideal(MonomialIdeal(R3, ((0, 0, 0),)))


def test_lex_ideal_xy_hilbert_functions_match():
    L = lex_ideal(MonomialIdeal(R2, ((1, 1),)))
    I = MonomialIdeal(R2, ((1, 1),))
    for d in range(9):
        assert brute_quotient_dim(L, d) == brute_quotient_dim(I, d)


def _is_lex_segment_of(I, L, upto):
    """L's degree-d pieces must be the first dim I_d monomials in lex order."""
    n = I.ring.n
    for d in range(upto + 1):
        monos = sorted(all_exponents(n, d), key=tuple, reverse=True)
        k = brute_ideal_dim(I, d)
        segment = {u for u in monos[:k]}
        actual = {u for u in monos if L.contains(u)}
        if segment != actual:
            return False
    return True


def test_lex_ideal_properties_on_samples():
    rng = random.Random(101)
    for _ in range(25):
        I = random_ideal(rng, R3, max_gens=4, max_deg=4)
        if I.is_unit or I.is_zero:
            continue
        L = lex_ideal(I)
        assert strong_stability_witness(L) is None
        upto = max(L.max_generator_degree(), I.max_generator_degree()) + 2
        for d in range(upto):
            assert brute_quotient_dim(L, d) == brute_quotient_dim(I, d)
        assert _is_lex_segment_of(I, L, upto)


def test_lex_ideal_from_values():
    assert lex_ideal_from_values(R3, (1, 3, 3, 1, 1)) == EXAMPLE_LEX
    with pytest.raises(MacaulayViolation):
        lex_ideal_from_values(R3, (1, 3, 9))
    with pytest.raises(MacaulayViolation):
        lex_ideal_from_values(R3, (2, 3))


def _rejects(check) -> bool:
    try:
        check()
    except MacaulayViolation:
        return True
    return False


def test_lex_segments_reject_values_that_are_not_integers():
    for bad in (3.0, 2.5, Fraction(3)):
        values = (1, bad, 3, 1, 1)
        with pytest.raises(MacaulayViolation, match="degree-1"):
            lex_ideal_from_values(R3, values)
        with pytest.raises(MacaulayViolation, match="degree-1"):
            list(enumerate_strongly_stable(FamilySpec(R3, values, 3)))


def test_lex_segments_check_macaulay_like_the_oracle():
    # every window with n <= 4, length <= 5 and values in [-1, dim R_d + 1]
    assert _rejects(lambda: lex_ideal_from_values(R2, ()))
    assert _rejects(lambda: validate_hilbert_values((), 2))
    windows = admissible = 0
    for n in range(1, 5):
        ring = RingSpec(n)
        for length in range(1, 6):
            ranges = [range(-1, comb(d + n - 1, n - 1) + 2) for d in range(length)]
            for values in product(*ranges):
                oracle = _rejects(lambda: validate_hilbert_values(values, n))
                assert _rejects(lambda: lex_ideal_from_values(ring, values)) == oracle, values
                windows += 1
                admissible += not oracle
    assert (windows, admissible) == (389568, 1669)


# -- Gotzmann property ----------------------------------------------------------


def test_is_gotzmann_examples():
    assert is_gotzmann(MonomialIdeal(R3, ((1, 0, 0), (0, 1, 0))))
    assert not is_gotzmann(EXAMPLE)
    assert graded_generator_counts(EXAMPLE) == {2: 3, 3: 2}
    assert graded_generator_counts(EXAMPLE_LEX) == {2: 3, 3: 3}
    rng = random.Random(55)
    for _ in range(10):
        n = rng.randint(2, 4)
        e = [0] * n
        for _ in range(rng.randint(1, 4)):
            e[rng.randrange(n)] += 1
        assert is_gotzmann(MonomialIdeal(RingSpec(n), (tuple(e),)))


# -- the shadow-count builder against the set-based oracle ----------------------


def _brute_shadow_size(n, d, size):
    """|R_1 * L| for L the first `size` degree-d lex monomials, by building it."""
    segment = sorted(all_exponents(n, d), reverse=True)[:size]
    return len({tuple(e + (k == i) for k, e in enumerate(u))
                for u in segment for i in range(n)})


@st.composite
def ideal_dims(draw):
    """dim I_d for d = 0..D: with obey, each within Macaulay's bounds; else
    free, so most sequences violate growth, and some leave [0, dim R_d]."""
    n = draw(st.integers(1, 5))
    top = draw(st.integers(0, 8))
    obey = draw(st.booleans())
    dims = [0 if obey else draw(st.sampled_from((0, 0, 0, 1)))]
    for d in range(1, top + 1):
        full = comb(d + n - 1, n - 1)
        low = _brute_shadow_size(n, d - 1, dims[-1]) if obey else 0
        dims.append(draw(st.integers(low, full if obey else full + 1)))
    return n, dims


def _build(builder, n, dims):
    try:
        return builder(RingSpec(n), dims)
    except MacaulayViolation as exc:
        return f"MacaulayViolation: {exc}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ideal_dims())
def test_segments_to_ideal_matches_set_oracle(case):
    n, dims = case
    values = [comb(d + n - 1, n - 1) - dim for d, dim in enumerate(dims)]
    assert (_build(lex_ideal_from_values, n, values)
            == _build(oracle_segments_to_ideal, n, dims))


def test_lex_next_steps_through_lex_order():
    from lexlab.gotzmann import _lex_next
    from lexlab.ring import enumerate_monomials
    for n in range(2, 7):
        for d in range(1, 9):
            monos = enumerate_monomials(n, d)
            assert [_lex_next(u) for u in monos[:-1]] == list(monos[1:]), (n, d)


def test_lex_next_rejects_the_last_monomial():
    # x_n^d has no successor, and in one variable no monomial has one; the
    # scan must not wrap round to x_n and return a tuple of the wrong shape
    from lexlab.gotzmann import _lex_next
    from lexlab.ring import enumerate_monomials
    for n in range(1, 7):
        for d in range(1, 9):
            last = enumerate_monomials(n, d)[-1]
            assert last == (*(0,) * (n - 1), d)
            with pytest.raises(ValueError, match="follows"):
                _lex_next(last)


def test_lex_ideal_matches_oracle_on_r4_family():
    family = [I for I in all_strongly_stable(R4, 3) if not I.is_zero]
    ideals = set(family) | {saturate(I) for I in family}
    checked = 0
    for I in ideals:
        if I.is_unit:
            continue
        L = lex_ideal(I)
        values = values_from_numerator(hilbert_numerator(I), 4, L.max_generator_degree() + 2)
        dims = [comb(d + 3, 3) - v for d, v in enumerate(values)]
        assert oracle_segments_to_ideal(R4, dims) == L, I
        checked += 1
    assert len(family) == checked == 350   # saturations stay in the family


# -- the persistence stop against the Gotzmann-bound oracle -----------------------


def test_lex_ideal_matches_gotzmann_bound_oracle_on_families():
    checked = 0
    for I in oracle_families():
        if not I.is_zero:
            assert lex_ideal(I) == lex_ideal_gotzmann_bound(I), I
            checked += 1
    assert checked == 62 + 2429 + 350 + 62


def test_lex_ideal_matches_gotzmann_bound_oracle_on_large_ideals():
    R5 = RingSpec(5)
    cube = MonomialIdeal(R5, tuple((3 - a, a, 0, 0, 0) for a in range(4)))   # (x1,x2)^3
    L = lex_ideal(cube)
    assert len(L.gens) == 265
    assert L == lex_ideal_gotzmann_bound(cube) == lex_ideal(L) == lex_ideal_gotzmann_bound(L)
    power = MonomialIdeal(R3, ((1600, 0, 0),))
    assert lex_ideal(power) == lex_ideal_gotzmann_bound(power) == power
    powers = MonomialIdeal(R2, ((300, 0), (0, 300)))
    L = lex_ideal(powers)
    assert (len(L.gens), L.max_generator_degree()) == (301, 599)
    assert L == lex_ideal_gotzmann_bound(powers)


def _lex_ideal_afresh(I):
    # past the walk's memo, by numerator, so the walk runs
    gotzmann._lex_by_numerator.cache_clear()
    return lex_ideal(I)


def test_lex_ideal_with_thousands_of_generators_is_built_in_seconds():
    # the walk takes well under a second; minimalizing its output pair by
    # pair takes tens of seconds
    I = MonomialIdeal(RingSpec(5), ((2, 0, 2, 0, 0), (0, 1, 0, 1, 1)))
    t0 = time.perf_counter()
    L = _lex_ideal_afresh(I)
    ok = (len(L.gens), strong_stability_witness(L) is None, hilbert_numerator(L)) == (
        6231, True, hilbert_numerator(I))
    elapsed = time.perf_counter() - t0
    assert ok
    assert elapsed < 10, elapsed


def test_lex_ideal_takes_one_growth_per_degree_walked(monkeypatch):
    degrees = []
    steps = []

    def counted(u):
        degrees.append(sum(u))
        return count_after(u)

    def stepped(u):
        steps.append(u)
        return lex_next(u)

    count_after, lex_next = gotzmann._count_after, gotzmann._lex_next
    monkeypatch.setattr(gotzmann, "_count_after", counted)
    monkeypatch.setattr(gotzmann, "_lex_next", stepped)
    L = _lex_ideal_afresh(MonomialIdeal(R2, ((1000, 0), (0, 1000))))
    # of the bounds in degrees 2..2000 (the walk stops at 2000), those up to
    # 1000 follow an empty segment and are dim R_d; the other 1000 are counts
    assert degrees == list(range(1001, 2001))
    # 1001 generators, the first taken as x^1000 without a step
    assert (len(L.gens), len(steps)) == (1001, 1000)
    for I in all_strongly_stable(R4, 3):
        if I.is_zero:
            continue
        degrees.clear()
        steps.clear()
        L = _lex_ideal_afresh(I)
        # the walk stops one past the top generator degree of I and of L,
        # and counts once in every degree from the one after L's lowest
        # generator degree up to the stop
        stop = max(I.max_generator_degree(), L.max_generator_degree()) + 1
        first = min(map(sum, L.gens))
        assert degrees == list(range(first + 1, stop + 1)), I
        assert len(steps) <= len(L.gens), I


@settings(max_examples=200, deadline=None, derandomize=True)
@given(proper_monomial_ideals())
def test_lex_ideal_matches_gotzmann_bound_oracle_on_hypothesis_ideals(ideal):
    assert lex_ideal(ideal) == lex_ideal_gotzmann_bound(ideal)


def test_lex_ideal_is_shared_by_numerator_whichever_member_asks_first():
    # the walk stops past the top degree of the first ideal with a numerator;
    # every order of two members with one numerator and other top degrees
    # must give the oracle's lex ideal
    groups = {}
    for I in all_strongly_stable(R4, 4):
        if not I.is_zero:
            groups.setdefault(hilbert_numerator(I), []).append(I)
    pairs = 0
    for members in groups.values():
        if len({I.max_generator_degree() for I in members}) < 2:
            continue
        expected = lex_ideal_gotzmann_bound(members[0])
        for first in members:
            gotzmann._lex_by_numerator.cache_clear()
            assert lex_ideal(first) == expected, first
            for second in members:
                if second.max_generator_degree() != first.max_generator_degree():
                    assert lex_ideal(second) == expected, (first, second)
                    pairs += 1
    assert pairs == 584   # ordered pairs


def test_lex_ideal_shares_one_walk_per_numerator():
    # (x^2, xy, y^2) in Q[x,y,z] and its lex ideal differ as ideals but share
    # a Hilbert function, so the second one asked walks nothing
    first = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (0, 2, 0)))
    second = lex_ideal_gotzmann_bound(first)
    assert first != second
    gotzmann._lex_by_numerator.cache_clear()
    assert lex_ideal(first) is lex_ideal(second) == second
    info = gotzmann._lex_by_numerator.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_lex_ideal_is_memoised_by_value():
    gens = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 2), (0, 1, 2))
    first = MonomialIdeal(RingSpec(3), gens)
    second = MonomialIdeal(RingSpec(3), tuple(reversed(gens)))
    assert first is not second and first == second
    assert lex_ideal(first) is lex_ideal(second) == EXAMPLE_LEX


# -- Gotzmann representation ------------------------------------------------------


def _num(ideal):
    return hilbert_numerator(ideal), ideal.ring.n


def test_gotzmann_representation_examples():
    g = gotzmann_representation(*_num(POINT))                    # P = 1
    assert (g.a, g.v, g.h, g.l) == ((0,), (0, 1), 2, 1)
    g = gotzmann_representation(*_num(TWO_PLANES))               # 2X + 2
    assert (g.a, g.v, g.l) == ((1, 1, 0), (0, 2, 1), 3)
    two_x = (0, 2, -4, 2)                                        # 2t (1 - t)^2
    assert hilbert_polynomial_of(two_x, 4) == (0, 2)
    with pytest.raises(MacaulayViolation, match="not a Gotzmann-representable"):
        gotzmann_representation(two_x, 4)                        # 2X
    assert hilbert_polynomial_of((1,), 2) == (1, 1)
    with pytest.raises(MacaulayViolation, match="degree 1 too large for 2 variables"):
        gotzmann_representation((1,), 2)                         # the zero ideal: X + 1


def _brute_representation_exists(p_coeffs, length):
    """Search all non-increasing a-sequences up to `length` reproducing p."""
    from lexlab.hilbert import poly_trim

    target = poly_trim(tuple(Fraction(c) for c in p_coeffs))
    maxdeg = max((i for i, c in enumerate(target) if c), default=0)

    def rec(i, prev, acc):
        if poly_trim(acc) == target:
            return True
        if i >= length:
            return False
        return any(rec(i + 1, a, poly_add(acc, binomial_in_x(a, i)))
                   for a in range(min(prev, maxdeg), -1, -1))

    return rec(0, maxdeg, ())


def test_gotzmann_representation_against_search():
    assert _brute_representation_exists((2, 2), 3)       # 2X + 2 with l = 3
    assert not _brute_representation_exists((2, 2), 2)   # and not shorter
    assert not _brute_representation_exists((0, 2), 6)   # 2X has none at all


def _family_numerators():
    """The distinct series numerators of R3 d <= 5, R4 d <= 4 and R5 d <= 3."""
    return {(n, eliahou_kervaire(I.gens)) for n, d in ((3, 5), (4, 4), (5, 3))
            for I in all_strongly_stable(RingSpec(n), d) if not I.is_zero}


def _times_one_minus_t(m, e):
    """The coefficients of m(t) (1 - t)^e."""
    out = [0] * (len(m) + e)
    for i, c in enumerate(m):
        for j in range(e + 1):
            out[i + j] += c * (-1) ** j * comb(e, j)
    return tuple(out)


def _outcome(route, *args):
    try:
        return route(*args)
    except MacaulayViolation as exc:
        return f"rejected: {exc}"


def test_gotzmann_runs_match_summand_loop():
    # one subtraction per run, in integers from the numerator, against one
    # per summand on the rational polynomial: the same exponents, their
    # v-vector (slot n - a - 1), count and h (the slot of the smallest)
    nums = _family_numerators()
    assert len(nums) == 4196
    by_polynomial = {}
    for n, num in nums:
        p = hilbert_polynomial_of(num, n)
        if (n, p) not in by_polynomial:
            by_polynomial[n, p] = gotzmann_by_summands(p, n)
        a, g = by_polynomial[n, p], gotzmann_representation(num, n)
        assert g.a == a and g.l == len(a), (n, num)
        assert g.v == tuple(a.count(n - i - 1) for i in range(1, n)), (n, num)
        assert g.h == (n - 1 - a[-1] if a else 0), (n, num)
    assert len(by_polynomial) == 394
    # seeded random numerators M(t) (1 - t)^(n - 1 - d): P has degree at most
    # d, up to n - 1, and leads with M(1)/d!; accepted and rejected alike
    rng = random.Random(24)
    outcomes = {"accepted": 0, "rejected": 0, "skipped": 0}
    for _ in range(4000):
        n = rng.randint(2, 6)
        d = rng.randint(0, n - 1)
        num = _times_one_minus_t([rng.randint(-3, 4) for _ in range(rng.randint(1, 4))],
                                 n - 1 - d)
        a = _outcome(gotzmann_by_summands, hilbert_polynomial_of(num, n), n, 2000)
        if a is None:   # past 2000 summands
            outcomes["skipped"] += 1
            continue
        g = _outcome(gotzmann_representation, num, n)
        assert (g if isinstance(g, str) else g.a) == a, (n, num)   # the same message
        outcomes["rejected" if isinstance(a, str) else "accepted"] += 1
    assert outcomes["accepted"] > 1000 and outcomes["rejected"] > 1000, outcomes


FOUR_SQUARES_R8 = MonomialIdeal(RingSpec(8), tuple(
    tuple(2 if j == i else 0 for j in range(8)) for i in range(4)))


def test_gotzmann_representation_of_four_squares_in_r8():
    # Gotzmann number 11,356,522: one subtraction per summand cannot meet the bound
    num = hilbert_numerator(FOUR_SQUARES_R8)
    assert num == (1, 0, -4, 0, 6, 0, -4, 0, 1)
    t0 = time.perf_counter()
    g = gotzmann_representation(num, 8)
    elapsed = time.perf_counter() - t0
    assert g.v == (0, 0, 0, 16, 88, 4700, 11351718)
    assert g.l == 11_356_522 and g.h == 7
    assert elapsed < 1.0, elapsed


def _family_ideals_by_numerator():
    """One member for each distinct numerator of R3 d <= 5, R4 d <= 4 and R5 d <= 3."""
    return {(n, eliahou_kervaire(I.gens)): I for n, d in ((3, 5), (4, 4), (5, 3))
            for I in all_strongly_stable(RingSpec(n), d) if not I.is_zero}


def test_lex_top_degree_is_the_top_degree_of_the_walk():
    # T = max(l, deg N - n + 1) against the walk, which stops by persistence
    # and reads no Gotzmann data
    ideals = _family_ideals_by_numerator()
    assert len(ideals) == 4196
    for (n, num), I in ideals.items():
        assert lex_top_degree(num, n) == lex_ideal(I).max_generator_degree(), I
    for I in non_stable_ideals():   # criterion 12's 300
        assert (lex_top_degree(hilbert_numerator(I), I.ring.n)
                == lex_ideal(I).max_generator_degree()), I


def test_lex_top_degree_at_both_ends_of_the_bound():
    # artinian: l = 0 and deg N - n + 1 decides
    squares = MonomialIdeal(R3, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
    num = hilbert_numerator(squares)
    assert gotzmann_representation(num, 3).l == 0
    assert lex_top_degree(num, 3) == lex_ideal(squares).max_generator_degree() == 4
    # hypersurfaces of degree d < n: deg N - n + 1 <= 0 and l = d decides
    for n in range(2, 7):
        for d in range(1, n):
            I = MonomialIdeal(RingSpec(n), (tuple(1 if i < d else 0 for i in range(n)),))
            num = hilbert_numerator(I)
            assert len(num) - n <= 0
            assert lex_top_degree(num, n) == lex_ideal(I).max_generator_degree() == d, I
    assert lex_top_degree((1,), 3) == 0   # the zero ideal
    assert lex_top_degree(hilbert_numerator(MonomialIdeal(RingSpec(1), ((5,),))), 1) == 5


def test_lex_top_degree_of_four_squares_in_r8_walks_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("lex_top_degree walked the lex ideal")

    monkeypatch.setattr(gotzmann, "_lex_by_numerator", refuse)
    monkeypatch.setattr(gotzmann, "_lex_segments", refuse)
    t0 = time.perf_counter()
    T = lex_top_degree(hilbert_numerator(FOUR_SQUARES_R8), 8)
    elapsed = time.perf_counter() - t0
    assert T == 11_356_522
    assert elapsed < 1.0, elapsed


def test_gotzmann_representation_builds_no_fraction(monkeypatch):
    # the Gotzmann data comes from the numerator in integers, as criterion
    # 13 requires of verify_main
    nums = [*_family_numerators(), (8, hilbert_numerator(FOUR_SQUARES_R8))]
    made = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    data = [gotzmann_representation(num, n) for n, num in nums]
    monkeypatch.undo()
    assert (len(data), data[-1].l, made[0]) == (4197, 11_356_522, 0)


def test_gotzmann_representation_subtracts_once_per_run(monkeypatch):
    # n binomials per nonzero numerator term give D^k P(0), k < n; then a
    # run of exponent a subtracts two binomials from each of D^0..D^a, once
    calls = []
    binom = hilbert.binom

    def counted(m, r):
        calls.append((m, r))
        return binom(m, r)

    monkeypatch.setattr(hilbert, "binom", counted)
    monkeypatch.setattr(gotzmann, "binom", counted)
    for ideal in (FIVE_POINTS, TWO_PLANES, FOUR_SQUARES_R8):
        num, n = _num(ideal)
        calls.clear()
        g = gotzmann_representation(num, n)
        runs = [n - i for i, count in enumerate(g.v, 1) if count]   # a + 1 per run
        assert len(runs) <= n - 1
        terms = sum(1 for c in num if c)
        assert len(calls) == n * terms + 2 * sum(runs), (n, calls)


def test_gotzmann_representation_empty():
    g = gotzmann_representation((), 3)   # the unit ideal's numerator
    assert (g.a, g.h, g.l) == ((), 0, 0)
    assert saturated_lex_generators(g).is_unit
    artinian = MonomialIdeal(R3, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))   # P = 0, N != 0
    assert gotzmann_representation(*_num(artinian)) == g


def test_binomial_in_x_is_exact():
    coeffs = binomial_in_x(2, 1)   # binom(X + 1, 2) = X/2 + X^2/2
    assert coeffs == (0, Fraction(1, 2), Fraction(1, 2))
    assert all(type(c) is Fraction for c in coeffs)


def _exact(values) -> bool:
    return all(type(c) in (int, Fraction) for c in values)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.integers(0, 6), shift=st.integers(-4, 8), x=st.integers(0, 12))
def test_binomial_in_x_has_no_float(a, shift, x):
    from lexlab.hilbert import poly_eval
    coeffs = binomial_in_x(a, shift)
    assert _exact(coeffs)
    top = x + a - shift   # binom(top, a) = top (top - 1) ... (top - a + 1) / a!
    assert poly_eval(coeffs, x) == Fraction(prod(top - k for k in range(a)), factorial(a))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 5), data=st.data())
def test_gotzmann_representation_has_no_float(n, data):
    # the summand C(X + a - i, a) is the polynomial of t^i (1 - t)^(n - 1 - a)
    a = sorted(data.draw(st.lists(st.integers(0, n - 2), max_size=6)), reverse=True)
    num, p = (), ()
    for i, ai in enumerate(a):
        num = poly_add(num, _times_one_minus_t((0,) * i + (1,), n - 1 - ai))
        p = poly_add(p, binomial_in_x(ai, i))
    assert hilbert_polynomial_of(num, n) == p
    g = gotzmann_representation(num, n)
    assert g.a == tuple(a)
    assert _exact(g.a) and _exact(g.v) and _exact((g.h, g.l))


def test_lex_of_float_leak_regression():
    # binom(X + 1, 2) in this ideal's Hilbert polynomial once came out in floats
    I = MonomialIdeal(R4, ((3, 0, 0, 0), (2, 1, 0, 0), (2, 0, 1, 0)))
    L = lex_ideal(I)
    assert strong_stability_witness(L) is None
    assert hilbert_numerator(L) == hilbert_numerator(I)
    rep = exchange_property(I)
    assert rep.holds and rep.left == rep.right == saturate(L)


# -- saturated lex generators and vanishing ---------------------------------------


def test_saturated_lex_generators_examples():
    g = gotzmann_representation(*_num(POINT))
    assert saturated_lex_generators(g) == POINT
    g = gotzmann_representation(*_num(TWO_PLANES))
    expected = MonomialIdeal(R4, ((1, 0, 0, 0), (0, 3, 0, 0), (0, 2, 1, 0)))
    assert saturated_lex_generators(g) == expected
    assert saturate(lex_ideal(TWO_PLANES)) == expected
    g = gotzmann_representation(*_num(DOUBLE_LINE))      # 3X + 1
    built = saturated_lex_generators(g)
    assert built == MonomialIdeal(R4, ((1, 0, 0, 0), (0, 4, 0, 0), (0, 3, 1, 0)))
    assert hilbert_series(built, 10).polynomial == (Fraction(1), Fraction(3))


def test_roundtrip_hilbert_polynomial():
    for ideal, coeffs in ((POINT, (1,)), (TWO_PLANES, (2, 2)), (DOUBLE_LINE, (1, 3)),
                          (FIVE_POINTS, (5,)), (LINE_AND_POINTS, (3, 1))):
        assert hilbert_series(ideal).polynomial == tuple(Fraction(c) for c in coeffs)
        n = ideal.ring.n
        g = gotzmann_representation(*_num(ideal))
        built = saturated_lex_generators(g)
        data = hilbert_series(built, built.max_generator_degree() + n + 3)
        assert data.polynomial == tuple(Fraction(c) for c in coeffs)


def test_predict_lc_vanishing():
    g = gotzmann_representation(*_num(POINT))     # v = (0, 1)
    vanish = predict_lc_vanishing(g)
    assert 2 in vanish and 1 not in vanish and 0 in vanish
    # engine cross-check on R/(x, y) over 3 variables
    sat = saturated_lex_generators(g)
    table = local_cohomology_table(sat, lcm_window(sat))
    rows = set(table.nonzero_rows())
    for i in range(3):
        assert (i in vanish) == (i not in rows)

    g = gotzmann_representation(*_num(TWO_PLANES))   # v = (0, 2, 1)
    vanish = predict_lc_vanishing(g)
    assert vanish == frozenset({0, 3})
    sat = saturated_lex_generators(g)
    table = local_cohomology_table(sat, lcm_window(sat))
    rows = set(table.nonzero_rows())
    for i in range(4):
        assert (i in vanish) == (i not in rows)

    # every Hilbert polynomial of the R3 d <= 4 and R4 d <= 3 families
    targets = {gotzmann_representation(*_num(I))
               for n, d in ((3, 4), (4, 3)) for I in all_strongly_stable(RingSpec(n), d)
               if not I.is_zero and not I.is_unit}
    assert len(targets) == 76
    for g in targets:
        sat = saturated_lex_generators(g)
        rows = set(local_cohomology_table(sat, lcm_window(sat)).nonzero_rows())
        assert predict_lc_vanishing(g) == frozenset(range(g.n)) - rows, g


def test_predict_all_entries_nonzero():
    g = gotzmann_representation(*_num(TWO_PLANES))
    assert all(i not in predict_lc_vanishing(g)
               for i in range(4 - g.h, 4) if g.v[4 - i - 1])


# -- exchange property -------------------------------------------------------------


def test_exchange_examples():
    rep = exchange_property(EXAMPLE)
    xy = MonomialIdeal(R3, ((1, 0, 0), (0, 1, 0)))
    assert rep.holds and rep.left == xy and rep.right == xy

    rep = exchange_property(TWO_PLANES)
    assert not rep.holds
    assert rep.left == MonomialIdeal(R4, ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0),
                                          (1, 0, 0, 1), (0, 3, 0, 0), (0, 2, 1, 0)))
    assert rep.right == MonomialIdeal(R4, ((1, 0, 0, 0), (0, 3, 0, 0), (0, 2, 1, 0)))

    saturated_lex = MonomialIdeal(R3, ((1, 0, 0), (0, 2, 0)))
    rep = exchange_property(saturated_lex)
    assert rep.holds and rep.left == saturated_lex and rep.right == saturated_lex


def _assert_row_zero_decides_like_oracle(I, oracle):
    # verify_main reads (i) from row 0 of the tables, the oracle from the
    # explicit sides; both conditions must then agree
    report = verify_main(I)
    assert report.condition_i == oracle[0], I
    assert report.verdict == VERDICT_CONSISTENT, I


def _assert_exchange_reads_the_saturation(I):
    # both sides are functions of J = I^sat: the unit ideal when J is, else
    # the exchange of J itself
    sat = saturate(I)
    rep = exchange_property(I)
    if sat.is_unit:
        assert rep.holds and rep.left == rep.right == sat, I
    else:
        assert rep == exchange_property(sat), I


def _saturated_lex_of_the_polynomial(I):
    # L_P, read from the Gotzmann representation of P with no walk
    return saturated_lex_generators(
        gotzmann_representation(hilbert_numerator(I), I.ring.n), I.ring)


@pytest.mark.parametrize("n, max_degree", [(3, 5), (4, 4), (5, 3)])
def test_exchange_matches_colon_oracle_on_families(n, max_degree):
    # the projection saturates I and its lex ideal; the oracle takes colons
    # and walks I^lex, where the library walks J^lex for J = I^sat
    for I in all_strongly_stable(RingSpec(n), max_degree):
        if not I.is_zero:
            oracle = exchange_by_colon(I)
            rep = exchange_property(I)
            assert (rep.holds, rep.left, rep.right) == oracle, I
            assert rep.right == _saturated_lex_of_the_polynomial(I), I
            _assert_exchange_reads_the_saturation(I)
            assert saturate(I) == _saturate_by_powers(I), I
            _assert_row_zero_decides_like_oracle(I, oracle)


def test_exchange_matches_colon_oracle_on_non_stable_ideals():
    for I in non_stable_ideals():
        oracle = exchange_by_colon(I)
        rep = exchange_property(I)
        assert (rep.holds, rep.left, rep.right) == oracle, I
        assert rep.right == _saturated_lex_of_the_polynomial(I), I
        _assert_exchange_reads_the_saturation(I)
        _assert_row_zero_decides_like_oracle(I, oracle)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(proper_monomial_ideals())
def test_exchange_depends_on_the_saturation_alone(ideal):
    _assert_exchange_reads_the_saturation(ideal)


def test_exchange_walks_only_the_lex_ideal_of_the_saturation(monkeypatch):
    # one walk, J^lex, for a non-saturated ideal; none for an artinian one
    calls = []
    walk = gotzmann._lex_by_numerator
    monkeypatch.setattr(gotzmann, "_lex_by_numerator", lambda key: calls.append(key) or walk(key))
    non_saturated = MonomialIdeal(R4, ((4, 0, 0, 1), (0, 5, 0, 0), (0, 0, 3, 2), (1, 1, 1, 3)))
    artinian = MonomialIdeal(R3, ((3, 0, 0), (0, 3, 0), (0, 0, 3)))
    assert saturate(non_saturated) != non_saturated and saturate(artinian).is_unit
    for I, walks in ((non_saturated, 1), (artinian, 0)):
        gotzmann._exchange_of_saturation.cache_clear()
        walk.cache_clear()
        calls.clear()
        exchange_property(I)
        assert len(calls) == walks, I


def test_exchange_is_memoised_per_saturation():
    # the 350 proper members of R4 d <= 3 have 65 saturations, the unit
    # ideal among them; each report is built once and then shared by value
    family = [I for I in all_strongly_stable(R4, 3) if not I.is_zero]
    gotzmann._exchange_of_saturation.cache_clear()
    reports = [exchange_property(I) for I in family]
    saturations = {saturate(I) for I in family}
    assert len(family) == 350 and len(saturations) == 65
    assert gotzmann._exchange_of_saturation.cache_info().misses == 65
    artinian = {id(rep) for I, rep in zip(family, reports) if saturate(I).is_unit}
    assert len(artinian) == 1
    for I, rep in zip(family, reports):
        assert rep is exchange_property(I), I
        if not saturate(I).is_unit:   # the unit ideal has no exchange to ask for
            assert rep is exchange_property(saturate(I)), I


def test_exchange_artinian():
    m2 = MonomialIdeal(R3, tuple(e for e in all_exponents(3, 2)))
    rep = exchange_property(m2)
    assert rep.holds and rep.left.is_unit and rep.right.is_unit


def test_inclusion_left_in_right():
    rng = random.Random(3)
    for _ in range(25):
        I = random_ideal(rng, R3, max_gens=4, max_deg=4)
        if I.is_unit:
            continue
        rep = exchange_property(I)
        assert all(rep.right.contains(g) for g in rep.left.gens)


def test_exchange_iff_h0_equal():
    rng = random.Random(29)
    for _ in range(20):
        I = random_ideal(rng, R3, max_gens=4, max_deg=3)
        if I.is_unit:
            continue
        L = lex_ideal(I)
        satI, satL = saturate(I), saturate(L)
        upto = max(satI.max_generator_degree(), satL.max_generator_degree(),
                   I.max_generator_degree(), L.max_generator_degree()) + 3
        h0_equal = all(
            brute_ideal_dim(satI, j) - brute_ideal_dim(I, j)
            == brute_ideal_dim(satL, j) - brute_ideal_dim(L, j)
            for j in range(upto))
        assert exchange_property(I).holds == h0_equal
        assert verify_main(I).condition_i == h0_equal


def test_saturated_exchange_iff_lex_saturated():
    rng = random.Random(41)
    for _ in range(20):
        I = saturate(random_ideal(rng, R3, max_gens=4, max_deg=3))
        if I.is_unit or I.is_zero:
            continue
        L = lex_ideal(I)
        assert exchange_property(I).holds == (L == saturate(L))


def test_saturated_gotzmann_implies_exchange():
    rng = random.Random(43)
    for _ in range(25):
        I = saturate(random_ideal(rng, R3, max_gens=4, max_deg=3))
        if I.is_unit or I.is_zero:
            continue
        if is_gotzmann(I):
            assert exchange_property(I).holds


def test_lex_saturated_implies_gotzmann():
    rng = random.Random(47)
    for _ in range(30):
        I = random_ideal(rng, R3, max_gens=4, max_deg=3)
        if I.is_unit or I.is_zero:
            continue
        L = lex_ideal(I)
        if L == saturate(L):
            assert is_gotzmann(I)


def test_factorization_of_saturated_lex():
    # a saturated lex ideal with v_1 > 0 is X_1^{v_1} times the v_1-stripped one
    for v in ((2, 1), (1, 2), (3, 1)):
        g = gotzmann_representation_from_v(v, 3)
        L = saturated_lex_generators(g, R3)
        stripped = gotzmann_representation_from_v((0,) + v[1:], 3)
        J = saturated_lex_generators(stripped, R3)
        shifted = {tuple(e + (v[0] if t == 0 else 0) for t, e in enumerate(u))
                   for u in J.gens}
        assert set(L.gens) == shifted
        assert multiplicity(L) == v[0]


def gotzmann_representation_from_v(v, n):
    """GotzmannData with a prescribed v-vector, padded to n - 1 entries."""
    from lexlab import GotzmannData
    return GotzmannData(n, tuple(v) + (0,) * (n - 1 - len(v)))


def test_bar_restriction():
    # strongly stable I whose lex ideal avoids the last variable:
    # deleting that variable commutes with taking lex ideals
    rng = random.Random(59)
    checked = 0
    for _ in range(60):
        I = random_stable_ideal(rng, R3, max_gens=2, max_deg=3)
        if I.is_unit or I.is_zero:
            continue
        L = lex_ideal(I)
        if any(g[-1] for g in L.gens) or any(g[-1] for g in I.gens):
            continue
        bar_I = MonomialIdeal(R2, tuple(g[:-1] for g in I.gens))
        bar_L = MonomialIdeal(R2, tuple(g[:-1] for g in L.gens))
        assert lex_ideal(bar_I) == bar_L
        checked += 1
    assert checked >= 3
