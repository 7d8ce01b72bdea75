import gc
import random
import sys
import time
from math import comb

import families_oracle
import pytest
from helpers import brute_quotient_dim, random_ideal
from hilbert_oracle import macaulay_rep
from hypothesis import given, settings
from hypothesis import strategies as st

from lexlab import (FamilySpec, InvalidArgument, MacaulayViolation, MonomialIdeal,
                    RingSpec, all_strongly_stable, borel_filters,
                    enumerate_strongly_stable, families, gotzmann, is_strongly_stable,
                    lex_ideal, lex_ideal_from_values, strong_stability_witness)
from lexlab.gotzmann import lex_top_degree
from lexlab.hilbert import hilbert_numerator, values_from_numerator
from lexlab.ring import adjacent_moves, enumerate_monomials

R2 = RingSpec(2)
R3 = RingSpec(3)
EXAMPLE = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 2), (0, 1, 2)))
X3Y3_R4 = MonomialIdeal(RingSpec(4), ((3, 0, 0, 0), (0, 3, 0, 0)))
X4Y4_R3 = MonomialIdeal(R3, ((4, 0, 0), (0, 4, 0)))


def test_borel_filters_degree_two():
    filters = list(borel_filters(3, 2, frozenset()))
    assert len(filters) == 8
    for f in filters:
        ideal = MonomialIdeal(R3, tuple(f))
        assert is_strongly_stable(ideal) or not f


def _borel_filters_recursive(n, d, forced, size=None):
    """The recursion that the library's loop replaced: take each monomial,
    then leave it out, one call per monomial."""
    monos = enumerate_monomials(n, d)
    succ = {u: [v for _, v in adjacent_moves(u)] for u in monos}

    def rec(idx, chosen):
        if size is not None and (len(chosen) > size
                                 or len(chosen) + len(monos) - idx < size):
            return
        if idx == len(monos):
            if size is None or len(chosen) == size:
                yield frozenset(chosen)
            return
        u = monos[idx]
        if all(s in chosen for s in succ[u]):
            yield from rec(idx + 1, chosen | {u})
        if u not in forced:
            yield from rec(idx + 1, chosen)

    return rec(0, frozenset())


def test_borel_filters_keep_the_order_of_the_recursion():
    for n in range(1, 5):
        for d in range(5 if n < 4 else 4):
            monos = enumerate_monomials(n, d)
            for forced in (frozenset(), frozenset(monos[:1]), frozenset(monos[:3])):
                for size in (None, 0, 1, 2, 4, len(monos)):
                    assert (list(borel_filters(n, d, forced, size))
                            == list(_borel_filters_recursive(n, d, forced, size))), (n, d)


def test_borel_filters_reject_forced_monomials_they_cannot_place():
    # (2, 0, 0) has degree 2 and (1, 1) has two variables: no filter of the
    # degree-3 monomials in three variables contains either
    for stray in ((2, 0, 0), (1, 1)):
        with pytest.raises(InvalidArgument):
            list(borel_filters(3, 3, frozenset({stray})))
    assert len(list(borel_filters(3, 3, frozenset()))) == 16


def test_enumerators_give_the_oracle_sequence(monkeypatch):
    # the mask walk yields the members of the set walk in the set walk's
    # order, for whole sweeps and for families capped below and at T
    for n, d in ((3, 5), (4, 4), (5, 3)):
        ring = RingSpec(n)
        assert (list(all_strongly_stable(ring, d))
                == list(families_oracle._strongly_stable(ring, d))), (n, d)
    specs = (FamilySpec(R3, (1, 3, 3, 1, 1), 3),
             FamilySpec(R3, X4Y4_R3, 16),
             FamilySpec(X3Y3_R4.ring, X3Y3_R4, 9))
    walks = []
    for walk in (families._strongly_stable, families_oracle._strongly_stable):
        monkeypatch.setattr(families, "_strongly_stable", walk)
        walks.append([list(enumerate_strongly_stable(spec)) for spec in specs])
    assert walks[0] == walks[1]
    assert [len(members) for members in walks[0]] == [2, 912, 750]


def test_enumerate_singleton_family():
    spec = FamilySpec(R2, (1, 2, 2), 2)
    members = list(enumerate_strongly_stable(spec))
    assert members == [MonomialIdeal(R2, ((2, 0),))]


def test_enumerate_contains_example_and_its_lex():
    spec = FamilySpec(R3, (1, 3, 3, 1, 1), 3)
    members = list(enumerate_strongly_stable(spec))
    assert EXAMPLE in members
    assert lex_ideal(EXAMPLE) in members
    assert len(set(members)) == len(members)


def test_enumerate_rejects_macaulay_violation():
    with pytest.raises(MacaulayViolation):
        list(enumerate_strongly_stable(FamilySpec(R3, (1, 3, 9), 2)))
    with pytest.raises(MacaulayViolation):
        list(enumerate_strongly_stable(FamilySpec(R3, (2, 3, 3), 2)))


def test_family_spec_rejects_negative_max_degree():
    for target in ((1, 2, 1), MonomialIdeal(R2, ((2, 0),))):
        with pytest.raises(ValueError):
            FamilySpec(R2, target, -1)


@st.composite
def value_windows(draw):
    """Values for degrees 0..top in n <= 4 variables, each drawn around
    Macaulay's bound from the previous one, so some windows obey it and some
    leave it or the range [0, dim R_d]."""
    n = draw(st.integers(1, 4))
    values = [draw(st.sampled_from((1, 1, 1, 0, 2)))]
    for d in range(1, draw(st.integers(0, 4)) + 1):
        prev, dim_prev = values[-1], comb(d + n - 2, n - 1)
        bound = (macaulay_rep(prev, d - 1).growth() if d > 1 and 0 <= prev <= dim_prev
                 else comb(d + n - 1, n - 1))
        values.append(draw(st.integers(-1, bound + 1)))
    return n, tuple(values)


def _accepts(build):
    try:
        build()
    except MacaulayViolation:
        return False
    return True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(value_windows())
def test_lex_and_family_validate_values_alike(case):
    n, values = case
    ring = RingSpec(n)
    spec = FamilySpec(ring, values, len(values) - 1)
    assert (_accepts(lambda: lex_ideal_from_values(ring, values))
            == _accepts(lambda: next(enumerate_strongly_stable(spec), None)))


def test_enumerated_members_match_target():
    spec = FamilySpec(R3, (1, 3, 3, 1, 1), 3)
    for member in enumerate_strongly_stable(spec):
        assert strong_stability_witness(member) is None
        assert member.max_generator_degree() <= 3
        for d, v in enumerate((1, 3, 3, 1, 1)):
            assert brute_quotient_dim(member, d) == v


def test_enumerate_from_source_ideal():
    spec = FamilySpec(R3, EXAMPLE, 3)
    members = list(enumerate_strongly_stable(spec))
    assert EXAMPLE in members and lex_ideal(EXAMPLE) in members


def _deepest_stack(members) -> int:
    """The deepest call stack below this frame while `members` is drained."""
    base = _depth(sys._getframe())
    deepest = 0

    def profile(frame, event, arg):
        nonlocal deepest
        deepest = max(deepest, _depth(frame) - base)

    # a collector callback (Hypothesis registers one) run inside the drain
    # would count as one more frame, so the collector waits until it ends
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        count = sum(1 for _ in members)
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    assert count > 0
    return deepest


def _depth(frame) -> int:
    depth = 0
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_enumeration_stack_depth_grows_with_neither_degree_nor_monomials():
    # both caps lie at or below the lex ideal's top degree 9, so the higher
    # cap walks more degrees
    cubes = MonomialIdeal(R3, ((3, 0, 0), (0, 3, 0)))
    assert lex_ideal(cubes).max_generator_degree() == 9
    low, high = (_deepest_stack(enumerate_strongly_stable(FamilySpec(R3, cubes, d)))
                 for d in (5, 9))
    assert low == high, (low, high)
    low, high = (_deepest_stack(all_strongly_stable(RingSpec(1), d)) for d in (3, 60))
    assert low == high


def test_all_strongly_stable_sweep():
    members = list(all_strongly_stable(R3, 3))
    assert len(members) == len(set(members))
    assert MonomialIdeal(R3) in members          # the zero ideal
    assert EXAMPLE in members
    for member in members:
        assert strong_stability_witness(member) is None
        assert member.max_generator_degree() <= 3
        assert not member.is_unit


def test_all_strongly_stable_small_count():
    # in one variable the sweep is (0), (x), (x^2), ..., (x^maxdeg)
    members = list(all_strongly_stable(RingSpec(1), 4))
    assert len(members) == 5


def test_family_counts_are_symmetric_in_variables_and_degree():
    # observed, not proved: Q[x1..xn] has as many strongly stable ideals
    # generated in degrees <= d (the zero ideal included) as Q[x1..xd] has
    # in degrees <= n
    for (n, d), count in {(2, 7): 255, (3, 4): 351, (3, 5): 2430, (3, 6): 21759}.items():
        assert sum(1 for _ in all_strongly_stable(RingSpec(n), d)) == count, (n, d)
        assert sum(1 for _ in all_strongly_stable(RingSpec(d), n)) == count, (d, n)


def _oracle_targets():
    """Every strongly stable ideal of Q[x] of degree <= 5, Q[x,y] of degree
    <= 4 and Q[x,y,z] of degree <= 3, then seeded random monomial ideals in
    one to three variables, 400 in all."""
    targets = [ideal for n, d in ((1, 5), (2, 4), (3, 3))
               for ideal in all_strongly_stable(RingSpec(n), d)]
    rng = random.Random(16)
    while len(targets) < 400:
        ideal = random_ideal(rng, RingSpec(rng.randint(1, 3)), max_gens=3)
        if not ideal.is_unit:
            targets.append(ideal)
    return targets


def test_families_build_no_lex_ideal(monkeypatch):
    # T comes from the target's numerator and a member is kept by its own,
    # so an ideal target walks no lex ideal; `lex_ideal` has no memo above
    # the walk, so any lex ideal the enumerator asks for reaches `refuse`
    def refuse(walk):
        raise AssertionError(f"the family walked the lex ideal of {walk.num}")

    monkeypatch.setattr(gotzmann, "_lex_by_numerator", refuse)
    members = list(enumerate_strongly_stable(FamilySpec(X3Y3_R4.ring, X3Y3_R4, 6)))
    assert len(members) == 9
    num = hilbert_numerator(X3Y3_R4)
    assert all(hilbert_numerator(m) == num for m in members)


def test_family_capped_far_below_its_top_degree_is_fast():
    # T is 27 here, and the layers stop at the cap of 9 instead of stepping
    # shadows up to T + 1
    assert lex_top_degree(hilbert_numerator(X3Y3_R4), 4) == 27
    t0 = time.perf_counter()
    members = list(enumerate_strongly_stable(FamilySpec(X3Y3_R4.ring, X3Y3_R4, 9)))
    elapsed = time.perf_counter() - t0
    assert len(members) == len(set(members)) == 750
    num = hilbert_numerator(X3Y3_R4)
    assert all(hilbert_numerator(m) == num for m in members)
    assert elapsed < 3, elapsed


def test_complete_family_is_fast():
    # cap T = 16 gives the whole family of (x^4, y^4), walking every degree
    # up to T: 0.16-0.24 s on a 2-core Xeon host (Python 3.11)
    assert lex_top_degree(hilbert_numerator(X4Y4_R3), 3) == 16
    t0 = time.perf_counter()
    members = list(enumerate_strongly_stable(FamilySpec(R3, X4Y4_R3, 16)))
    elapsed = time.perf_counter() - t0
    assert len(members) == len(set(members)) == 912
    assert elapsed < 1.5, elapsed


def test_families_equal_the_brute_force_filter():
    # capped at D, the family of I is every strongly stable ideal generated
    # in degrees <= D with I's Hilbert function, and the family of a value
    # window is every such ideal with those values, wherever D falls against
    # the lex ideal's top degree
    by_numerator, by_values = {}, {}
    for n in (1, 2, 3):
        for cap in range(6):
            for member in all_strongly_stable(RingSpec(n), cap):
                num = hilbert_numerator(member)
                values = tuple(values_from_numerator(num, n, cap + 1))
                by_numerator.setdefault((n, cap, num), set()).add(member)
                by_values.setdefault((n, cap, values), set()).add(member)
    for target in _oracle_targets():
        n = target.ring.n
        num = hilbert_numerator(target)
        for cap in range(6):
            members = list(enumerate_strongly_stable(FamilySpec(target.ring, target, cap)))
            assert len(set(members)) == len(members), (target, cap)
            assert set(members) == by_numerator.get((n, cap, num), set()), (target, cap)
            values = tuple(values_from_numerator(num, n, cap + 1))
            members = set(enumerate_strongly_stable(FamilySpec(target.ring, values, cap)))
            assert members == by_values.get((n, cap, values), set()), (values, cap)
