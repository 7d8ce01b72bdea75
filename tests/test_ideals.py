import gc
import inspect
import random
import weakref
from itertools import chain

import pytest
from helpers import (brute_ideal_dim, non_stable_ideals, oracle_families, random_ideal,
                     random_monomial, random_stable_ideal)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ideals_oracle import (_colon_by_definition, _contains_any_scan,
                           _minimal_generators_pairwise, _projection_then_minimalize,
                           _saturate_by_colon, _saturate_by_definition, _saturate_by_powers,
                           _saturate_stable, _strong_stability_witness_all_pairs)

from lexlab import cohomology, gotzmann, ideals
from lexlab.ideals import minimal_generators, projection
from lexlab import (MonomialIdeal, RingSpec, all_strongly_stable, borel_move, colon,
                    depth_and_dim, exchange_property, graded_generator_counts, intersect,
                    is_strongly_stable, lex_ideal, lex_ideal_from_values,
                    local_cohomology_table, maximal_ideal, parse_ideal, parse_ring, saturate,
                    strong_stability_witness)

R3 = RingSpec(3)
R4 = RingSpec(4)
R5 = RingSpec(5)
EXAMPLE = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 2), (0, 1, 2)))


def test_minimalize_examples():
    assert MonomialIdeal(R3, ((2, 0, 0), (2, 1, 0), (1, 1, 0))).gens == ((2, 0, 0), (1, 1, 0))
    assert MonomialIdeal(R3).is_zero
    gens = ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 0), (0, 1, 0))
    assert MonomialIdeal(R3, gens).gens == ((1, 0, 0), (0, 1, 0))


@st.composite
def generators_and_probes(draw):
    n = draw(st.integers(1, 5))
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(exponent, max_size=12))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=3))   # duplicates
    return n, gens, draw(st.lists(exponent, max_size=6))


def _assert_index_matches_oracles(n, gens, probes):
    assert minimal_generators(gens) == _minimal_generators_pairwise(gens), gens
    I = MonomialIdeal(RingSpec(n), tuple(gens))
    for u in list(probes) + list(gens):
        assert I.contains(u) == _contains_any_scan(I, u), (gens, u)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(generators_and_probes())
@example((1, [], [(0,), (2,)]))
@example((1, [(3,), (1,), (3,), (2,)], [(0,), (1,), (5,)]))
@example((3, [], [(0, 0, 0), (1, 2, 0)]))
@example((3, [(0, 0, 0), (1, 0, 2), (0, 0, 0)], [(0, 0, 0), (2, 1, 0)]))
@example((4, [(1, 1, 0, 0), (0, 1, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0)], [(1, 0, 1, 0)]))
def test_index_matches_pairwise_oracles(case):
    # same generators in the same order, same membership answers
    _assert_index_matches_oracles(*case)


def test_index_matches_pairwise_oracles_on_r4_family_and_large_lex_ideals():
    members = [I for I in all_strongly_stable(R4, 3) if not I.is_zero]
    assert len(members) == 350
    # lex ideals of 265 and 301 generators: the masks span many machine words
    large = [MonomialIdeal(R5, tuple((3 - a, a, 0, 0, 0) for a in range(4))),
             MonomialIdeal(RingSpec(2), ((300, 0), (0, 300)))]
    assert [len(lex_ideal(I).gens) for I in large] == [265, 301]
    for I in members + large:
        L = lex_ideal(I)
        n = I.ring.n
        dropped = [u[:-1] + (0,) for u in L.gens]   # far from minimal
        probes = [borel_move(u, 0, n - 1) for u in L.gens if u[-1]] + list(I.gens + L.gens)
        for gens in (I.gens, L.gens, I.gens + L.gens, dropped):
            _assert_index_matches_oracles(n, gens, probes)


def test_unit_and_zero():
    unit = MonomialIdeal(R3, ((0, 0, 0), (1, 0, 0)))
    assert unit.is_unit and unit.gens == ((0, 0, 0),)
    assert not MonomialIdeal(R3).is_unit
    with pytest.raises(ValueError):
        MonomialIdeal(R3, ((1, 0),))


def test_contains_examples():
    assert not EXAMPLE.contains((1, 0, 1))          # xz
    assert EXAMPLE.contains((1, 1, 1))              # xyz, divisible by xy
    assert not MonomialIdeal(R3).contains((1, 0, 0))


def test_colon_examples():
    I = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0)))
    x = MonomialIdeal(R3, ((1, 0, 0),))
    assert colon(I, x).gens == ((1, 0, 0), (0, 1, 0))
    unit = MonomialIdeal(R3, ((0, 0, 0),))
    assert colon(EXAMPLE, unit) == EXAMPLE
    with pytest.raises(ValueError):
        colon(EXAMPLE, MonomialIdeal(R3))


def test_iterated_colon_reaches_saturation():
    m = maximal_ideal(R3)
    current = EXAMPLE
    while True:
        nxt = colon(current, m)
        if nxt == current:
            break
        current = nxt
    assert current.gens == ((1, 0, 0), (0, 1, 0))


def test_saturate_examples():
    assert saturate(EXAMPLE).gens == ((1, 0, 0), (0, 1, 0))
    m2 = MonomialIdeal(R3, tuple((a, b, c) for a in range(3) for b in range(3)
                                 for c in range(3) if a + b + c == 2))
    assert saturate(m2).is_unit
    I4 = MonomialIdeal(R4, ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
                            (0, 3, 0, 0), (0, 2, 1, 0)))
    assert saturate(I4).gens == ((1, 0, 0, 0), (0, 3, 0, 0), (0, 2, 1, 0))


def test_saturate_properties():
    rng = random.Random(23)
    for _ in range(40):
        I = random_ideal(rng, R3)
        sat = saturate(I)
        assert saturate(sat) == sat
        assert all(sat.contains(g) for g in I.gens)
        # quotient sat/I vanishes in high degrees
        d = max(sat.max_generator_degree(), I.max_generator_degree()) + R3.n + 2
        assert brute_ideal_dim(sat, d) == brute_ideal_dim(I, d)


def test_both_saturation_paths_agree_on_stable_ideals():
    rng = random.Random(5)
    for _ in range(30):
        I = random_stable_ideal(rng, R3)
        assert is_strongly_stable(I)
        assert saturate(I) == _saturate_by_colon(I)


@pytest.mark.parametrize("n, max_degree, with_lex", [
    (3, 3, False), (4, 3, True), (3, 4, False), (5, 2, False),
    (3, 5, True), (4, 4, True), (5, 3, True)])
def test_saturate_matches_colon_oracle_on_families(n, max_degree, with_lex):
    # the last three are the exchange oracle's families, where the definition
    # oracle is too slow: the iterated colon by m shares no code with the
    # projection that saturates these strongly stable ideals
    members = [I for I in all_strongly_stable(RingSpec(n), max_degree) if not I.is_zero]
    if with_lex:
        members = {*members, *map(lex_ideal, members)}
    for I in members:
        assert saturate(I) == _saturate_by_colon(I), I


def test_saturate_matches_stable_oracle_on_r5_family():
    # the colon oracle is too slow for all 2429 members
    members = [I for I in all_strongly_stable(R5, 3) if not I.is_zero]
    assert len(members) == 2429
    for I in members:
        assert saturate(I) == _saturate_stable(I), I


@st.composite
def monomial_ideals(draw):
    n = draw(st.integers(1, 5))
    exponent = st.tuples(*[st.integers(0, 4)] * n)
    return MonomialIdeal(RingSpec(n), tuple(draw(st.lists(exponent, max_size=6))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(monomial_ideals())
def test_saturate_matches_colon_oracle_on_random_ideals(I):
    assert saturate(I) == _saturate_by_colon(I)


@st.composite
def small_ideal_pairs(draw):
    n = draw(st.integers(1, 3))
    ring = RingSpec(n)
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    I = MonomialIdeal(ring, tuple(draw(st.lists(exponent, max_size=5))))
    J = MonomialIdeal(ring, tuple(draw(st.lists(exponent, min_size=1, max_size=4))))
    return I, J


@settings(max_examples=400, deadline=None, derandomize=True)
@given(small_ideal_pairs())
def test_colon_and_saturate_match_definition_oracles(pair):
    I, J = pair
    assert saturate(I) == _saturate_by_definition(I), I
    assert colon(I, J) == _colon_by_definition(I, J), (I, J)


@pytest.mark.parametrize("ring", [R3, R4])
def test_saturate_builds_one_piece_on_strongly_stable_input(ring, monkeypatch):
    # on Borel-fixed input the last variable's piece of the colon by the
    # variable powers holds every other piece; saturate itself projects
    # such input and builds no piece at all
    members = [I for I in all_strongly_stable(ring, 3) if not I.is_zero]
    members += [lex_ideal(I) for I in members]
    built = []
    piece = ideals.colon_by_monomial
    monkeypatch.setattr(ideals, "colon_by_monomial", lambda I, v: built.append(v) or piece(I, v))
    for I in members:
        built.clear()
        sat = _saturate_by_powers(I)
        assert len(built) == 1, (I, built)
        built.clear()
        assert saturate(I) == sat and not built, (I, built)


@pytest.mark.parametrize("n, max_degree", [(3, 4), (4, 3), (5, 2)])
def test_saturate_matches_definition_oracle_on_families_and_lex_ideals(n, max_degree):
    # the projection route on every member and its lex ideal; the oracle's
    # divisors-times-words scan does not reach the larger families in seconds
    members = [I for I in all_strongly_stable(RingSpec(n), max_degree) if not I.is_zero]
    for I in {*members, *map(lex_ideal, members)}:
        assert saturate(I) == _saturate_by_definition(I), I


# -- the projection chain M_n = I, M_(n-1) = I^sat, ..., M_0 ------------------------


def _assert_chain_matches_oracle(gens, n):
    # k = n keeps the minimal generators; each later link is fed the
    # previous link's output, as the local cohomology rows feed it
    for k in range(n, -1, -1):
        projected = projection(gens, k)
        assert sorted(projected, reverse=True) == list(_projection_then_minimalize(gens, k)), \
            (gens, k)
        gens = projected


@pytest.mark.parametrize("n, max_degree", [(3, 5), (4, 4), (5, 3)])
def test_projection_chain_matches_minimalized_oracle_on_families(n, max_degree):
    members = [I for I in all_strongly_stable(RingSpec(n), max_degree) if not I.is_zero]
    for I in {*members, *map(lex_ideal, members)}:
        _assert_chain_matches_oracle(I.gens, n)


def test_projection_chain_matches_minimalized_oracle_on_large_lex_ideals():
    lex_ideals = [lex_ideal(I) for I in non_stable_ideals()]
    large = [lex_ideal(MonomialIdeal(R5, ((2, 0, 2, 0, 0), (0, 1, 0, 1, 1)))),
             lex_ideal(parse_ideal("x1^3, x1^2*x2, x1*x2^2, x2^3",
                                   parse_ring("x1,x2,x3,x4,x5,x6")))]
    assert [len(L.gens) for L in large] == [6231, 11137]
    for L in lex_ideals + large:
        _assert_chain_matches_oracle(L.gens, L.ring.n)


def test_projection_edge_cases():
    unit3 = ((0, 0, 0),)
    for k in range(4):
        assert projection((), k) == () == _projection_then_minimalize((), k)
        assert projection(unit3, k) == unit3 == _projection_then_minimalize(unit3, k)
    # k = 0 sends every generator to the unit
    for I in [EXAMPLE, MonomialIdeal(R3, ((0, 0, 4),)), maximal_ideal(R4)]:
        assert projection(I.gens, 0) == ((0,) * I.ring.n,)
    # one variable: (x^3) is saturated to the unit
    for gens in [((3,),), ((0,),), ()]:
        for k in (0, 1):
            assert projection(gens, k) == _projection_then_minimalize(gens, k), (gens, k)
    assert projection(((3,),), 1) == ((3,),) and projection(((3,),), 0) == ((0,),)
    # the zero ideal reaches the rows with no generators: R/0 = R has only
    # its top row, and R/R has none
    for ring in [RingSpec(1), R3]:
        for I in [MonomialIdeal(ring), MonomialIdeal(ring, ((0,) * ring.n,))]:
            assert saturate(I) == I == _saturate_by_colon(I)
            assert local_cohomology_table(I).nonzero_rows() == ([ring.n] if I.is_zero else [])


def test_projection_chain_builds_no_divisor_index(monkeypatch):
    # an R4 degree <= 3 pass of the lex ideal, the exchange and the tables
    # minimalizes every projection by lookups; typed input that is not
    # strongly stable still saturates by the colon, which indexes
    members = [I for I in all_strongly_stable(R4, 3) if not I.is_zero]
    for cache in (lex_ideal, gotzmann._lex_by_numerator, cohomology._engine):
        cache.cache_clear()
    built = []
    index = ideals._divisor_index
    monkeypatch.setattr(ideals, "_divisor_index", lambda gens: built.append(1) or index(gens))
    for I in members:
        L = lex_ideal(I)
        exchange_property(I)
        local_cohomology_table(I)
        local_cohomology_table(L)
    assert not built
    for I in non_stable_ideals():
        saturate(I)
    assert built


def test_contains_builds_the_index_once_per_ideal(monkeypatch):
    L = lex_ideal(MonomialIdeal(R5, ((2, 0, 2, 0, 0), (0, 1, 0, 1, 1))))
    I = MonomialIdeal(R5, L.gens)   # a fresh instance: no index built yet
    assert len(I.gens) == 6231
    built = []
    index = ideals._divisor_index
    monkeypatch.setattr(ideals, "_divisor_index", lambda gens: built.append(1) or index(gens))
    rng = random.Random(40)
    probes = rng.sample(I.gens, 50) + [random_monomial(rng, 5, 12) for _ in range(50)]
    answers = [I.contains(u) for u in probes]
    assert len(built) == 1
    assert answers == [_contains_any_scan(I, u) for u in probes]
    assert 0 < sum(answers) < len(answers)


def test_strong_stability_matches_all_pairs_oracle():
    rng = random.Random(41)
    for _ in range(2000):
        ring = RingSpec(rng.randint(2, 5))
        I = random_ideal(rng, ring, max_gens=5, max_deg=4)
        if rng.random() < 0.5:
            # near-stable input: a Borel closure plus at most one stray generator
            I = random_stable_ideal(rng, ring)
            if rng.random() < 0.5:
                I = MonomialIdeal(ring, I.gens + (random_monomial(rng, ring.n, 4),))
        witness = strong_stability_witness(I)
        assert (witness is None) == (_strong_stability_witness_all_pairs(I) is None), I
        if witness is not None:
            u, i, j = witness
            assert u in I.gens and i == j - 1 and u[j] > 0
            assert not I.contains(borel_move(u, i, j))


def test_strongly_stable_examples():
    assert is_strongly_stable(EXAMPLE)
    bad = MonomialIdeal(R3, ((1, 0, 1),))
    assert strong_stability_witness(bad) == ((1, 0, 1), 1, 2)
    assert is_strongly_stable(MonomialIdeal(R3, ((1, 0, 0),)))
    assert is_strongly_stable(MonomialIdeal(R3))   # vacuous


def test_graded_generator_counts():
    assert graded_generator_counts(EXAMPLE) == {2: 3, 3: 2}
    lex = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0),
                             (0, 2, 1), (0, 1, 2)))
    assert graded_generator_counts(lex) == {2: 3, 3: 3}
    assert graded_generator_counts(MonomialIdeal(R3)) == {}
    rng = random.Random(17)
    for _ in range(20):
        I = random_ideal(rng, R4)
        assert sum(graded_generator_counts(I).values()) == len(I.gens)


def test_depth_positive_stable():
    assert depth_and_dim(MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0))))[0] > 0
    assert depth_and_dim(EXAMPLE)[0] == 0
    I4 = MonomialIdeal(R4, ((1, 0, 0, 0), (0, 3, 0, 0), (0, 2, 1, 0)))
    assert depth_and_dim(I4)[0] > 0


def test_intersect_is_symmetric_and_contained():
    rng = random.Random(31)
    for _ in range(20):
        a = random_ideal(rng, R3)
        b = random_ideal(rng, R3)
        ab = intersect(a, b)
        assert ab == intersect(b, a)
        for g in ab.gens:
            assert a.contains(g) and b.contains(g)


# -- ideals known strongly stable by construction --------------------------------


def _assert_canonical_and_stable(X):
    # rebuilt by the validating, minimalizing constructor: same generators in
    # the same order, same hash; stability by the witness, never the mark
    rebuilt = MonomialIdeal(X.ring, X.gens)
    assert rebuilt == X and hash(rebuilt) == hash(X), X
    assert strong_stability_witness(X) is None, X


def test_known_strongly_stable_constructions_are_canonical_and_stable():
    # every check is by value, so an ideal met twice is checked once
    members = list(chain(oracle_families(), all_strongly_stable(R4, 4),
                         all_strongly_stable(R5, 3)))
    assert len(members) == 14640
    built = set(members)
    for I in members:
        if not I.is_zero:
            built.update((lex_ideal(I), saturate(I), exchange_property(I).right))
    built.update(lex_ideal(I) for I in non_stable_ideals())
    # raw-value walks: the windows the CLI tests type, a window with no
    # generator and windows whose ideal is all of m
    for ring, values in [(R3, (1, 3, 3, 1, 1)), (R4, (1, 4, 6, 4, 2, 1)), (R3, (1,)),
                         (R3, (1, 3, 6, 10)), (R3, (1, 0)), (R4, (1, 0, 0))]:
        built.add(lex_ideal_from_values(ring, values))
    assert MonomialIdeal(R3) in built and maximal_ideal(R4) in built
    large = lex_ideal(MonomialIdeal(R5, ((2, 0, 2, 0, 0), (0, 1, 0, 1, 1))))
    assert len(large.gens) == 6231
    for X in [*built, large]:
        _assert_canonical_and_stable(X)


def test_stability_mark_agrees_with_the_witness_on_library_output():
    # is_strongly_stable reads the instance's attribute, pre-set on the
    # library's strongly stable constructions; on every ideal the library
    # builds the answer must be the witness's
    built = [*all_strongly_stable(R4, 3)]
    for I in non_stable_ideals():
        sat = saturate(I)
        built += [I, sat, lex_ideal(I), colon(I, maximal_ideal(I.ring))]
        if not sat.is_unit:
            built.append(exchange_property(I).right)
    assert any(strong_stability_witness(X) is not None for X in built)
    for X in built:
        assert is_strongly_stable(X) == (strong_stability_witness(X) is None), X


def test_marked_and_plain_constructions_are_interchangeable():
    assert list(inspect.signature(MonomialIdeal).parameters) == ["ring", "gens"]
    members = [I for I in all_strongly_stable(R4, 3) if not I.is_zero]
    for I in members + [lex_ideal(I) for I in members[::7]]:
        marked = MonomialIdeal._strongly_stable(I.ring, reversed(I.gens))
        plain = MonomialIdeal(I.ring, I.gens)
        assert vars(marked)["_stable"] and "_stable" not in vars(plain)
        assert marked == plain == I and hash(marked) == hash(plain), I
        assert hash(I) == hash((I.ring, I.gens)), I
        assert {marked: 1}[plain] == 1 and len({marked, plain}) == 1


def test_stability_holds_no_ideal_alive():
    I = parse_ideal("x^3, x^2*y, y^4, x*z^3", parse_ring("x,y,z"))
    assert not is_strongly_stable(I)
    ref = weakref.ref(I)
    del I
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("text", ["x^2, x*y, y^3, x*z^2", "x*z, y^2"])
def test_equal_instances_each_pay_the_witness_once(text, monkeypatch):
    ring = parse_ring("x,y,z")
    calls = []
    witness = ideals.strong_stability_witness
    monkeypatch.setattr(ideals, "strong_stability_witness",
                        lambda J: calls.append(J) or witness(J))
    I, J = parse_ideal(text, ring), parse_ideal(text, ring)
    assert I == J and I is not J
    for _ in range(3):
        assert is_strongly_stable(I) == is_strongly_stable(J)
    assert [id(X) for X in calls] == [id(I), id(J)]
    calls.clear()
    marked = MonomialIdeal._strongly_stable(ring, lex_ideal(I).gens)
    assert is_strongly_stable(marked) and is_strongly_stable(saturate(marked))
    assert calls == []


@pytest.mark.parametrize("text", ["x^2, x*y, y^3, x*z^2", "x*z, y^2"])
def test_typed_input_pays_the_witness_once(text, monkeypatch):
    ring = parse_ring("x,y,z")
    I = parse_ideal(text, ring)
    calls = []
    witness = ideals.strong_stability_witness
    monkeypatch.setattr(ideals, "strong_stability_witness",
                        lambda J: calls.append(J) or witness(J))
    assert "_stable" not in vars(I)
    is_strongly_stable(I)
    lex_ideal(I)
    if is_strongly_stable(I):
        # the lex ideal, the saturations and the exchange's right side are
        # built strongly stable, so none of them asks the witness
        exchange_property(I)
        local_cohomology_table(I)
        local_cohomology_table(saturate(I))
    assert calls == [I]
