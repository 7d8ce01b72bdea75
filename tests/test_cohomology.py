import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from helpers import (GeneratorCapExceeded, brute_ideal_dim, ext_dimensions, non_stable_ideals,
                     proper_monomial_ideals, random_ideal, random_stable_ideal)
from herzog_sbarra_oracle import eliahou_kervaire_per_generator, rows_per_link
from hypothesis import example, given, settings
from hypothesis import strategies as st
from taylor_oracle import (Differential, _ext_dimensions_direct, graded_component_rank,
                           oracle_table, taylor_complex, verify_complex)
from window_oracle import (adjoin_variable, lcm_window, table_by_hilbert_values,
                           windowed_mismatch, windowed_rows_equal)

import lexlab
from lexlab import cohomology, hilbert
from lexlab import (DegreeWindow, MonomialIdeal, RingSpec, SequentialCMVerdict,
                    all_strongly_stable, default_window, depth_and_dim, is_strongly_stable,
                    lex_ideal, local_cohomology_table, saturate, sequentially_cm_verdict,
                    strong_stability_witness, tables_agree)
from lexlab.cohomology import LCTable, _engine, _herzog_sbarra_rows, _takayama_rows
from lexlab.hilbert import eliahou_kervaire, hilbert_numerator
from lexlab.reports import _rigidity_member

R1 = RingSpec(1)
R2 = RingSpec(2)
R3 = RingSpec(3)
R4 = RingSpec(4)
EXAMPLE = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 2), (0, 1, 2)))
TWO_PLANES = MonomialIdeal(R4, ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))


# -- the resolution -------------------------------------------------------------


def test_taylor_shape_koszul():
    tc = taylor_complex(MonomialIdeal(R2, ((1, 0), (0, 1))))
    assert [tc.rank(k) for k in range(3)] == [1, 2, 1]
    assert tc.shifts(0) == (0,)
    assert tc.shifts(1) == (-1, -1)
    assert tc.shifts(2) == (-2,)


def test_taylor_shape_example():
    tc = taylor_complex(EXAMPLE)
    assert [tc.rank(k) for k in range(6)] == [1, 5, 10, 10, 5, 1]


def test_taylor_principal():
    tc = taylor_complex(MonomialIdeal(R3, ((1, 1, 0),)))
    assert tc.length == 1 and tc.shifts(1) == (-2,)


def test_taylor_cap():
    gens = tuple(e for e in __import__("helpers").all_exponents(3, 5))
    assert len(gens) == 21
    with pytest.raises(GeneratorCapExceeded):
        taylor_complex(MonomialIdeal(R3, gens))


def test_complex_is_a_complex():
    rng = random.Random(2)
    for _ in range(10):
        I = random_ideal(rng, R3, max_gens=4, max_deg=3)
        verify_complex(taylor_complex(I))


def test_taylor_resolves_exactly_away_from_the_end():
    # rank(d_k) + rank(d_{k+1}) accounts for the whole middle term, degreewise
    rng = random.Random(6)
    for _ in range(4):
        I = random_ideal(rng, R3, max_gens=3, max_deg=3)
        if I.is_unit:
            continue
        tc = taylor_complex(I)
        for k in range(1, tc.length):
            dk = tc.differential(k)
            dk1 = tc.differential(k + 1)
            for j in range(0, 7):
                middle = sum(comb(j - s + R3.n - 1, R3.n - 1)
                             for s in dk.source_degrees if j >= s)
                assert (graded_component_rank(dk, j)
                        + graded_component_rank(dk1, j)) == middle, (I, k, j)


# -- graded component ranks -------------------------------------------------------


def test_rank_identity_map():
    for j in range(5):
        d = Differential(R2, (0,), (0,), ((0, 0, 1, (0, 0)),))
        assert graded_component_rank(d, j) == comb(j + 1, 1)


def test_rank_koszul_degree_two():
    # R(-1)^2 -> R, (a, b) |-> a*x + b*y, over two variables, degree 2
    d = Differential(R2, (1, 1), (0,), ((0, 0, 1, (1, 0)), (0, 1, 1, (0, 1))))
    assert graded_component_rank(d, 2) == 3


def test_rank_zero_map():
    d = Differential(R2, (1,), (0,), ())
    assert graded_component_rank(d, 4) == 0


# -- Ext dimensions ----------------------------------------------------------------


def test_ext_principal_closed_form():
    # E^1(R/f) = (R/f)(deg f - n)
    I = MonomialIdeal(R2, ((1, 0),))
    dims = ext_dimensions(I, 1, DegreeWindow(1, 3))
    assert dims == {1: 1, 2: 1, 3: 1}


def test_ext_maximal_ideal_socle():
    I = MonomialIdeal(R2, ((1, 0), (0, 1)))
    dims = ext_dimensions(I, 2, DegreeWindow(-2, 3))
    assert dims == {-2: 0, -1: 0, 0: 1, 1: 0, 2: 0, 3: 0}


def test_ext_above_ring_dimension_vanishes():
    I = MonomialIdeal(R2, ((2, 0), (1, 1), (0, 2)))
    for i in (3, 4):
        assert set(ext_dimensions(I, i, DegreeWindow(-4, 4)).values()) == {0}


def test_engine_matches_direct_ranks():
    rng = random.Random(19)
    w = DegreeWindow(-4, 7)
    for _ in range(12):
        n = rng.randint(1, 3)
        I = random_ideal(rng, RingSpec(n), max_gens=4, max_deg=3)
        for i in range(n + 2):
            assert ext_dimensions(I, i, w) == _ext_dimensions_direct(I, i, w), (I, i)


@st.composite
def small_ideals(draw):
    # a seed, because hypothesis's own draws favour tiny ideals
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_ideal(rng, RingSpec(rng.randint(1, 4)), max_gens=6, max_deg=3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_ideals())
@example(MonomialIdeal(R4))
@example(MonomialIdeal(R3, ((0, 0, 0),)))
def test_engine_matches_direct_ranks_property(I):
    # Ext degrees below -8 vanish for generators of degree <= 3 in <= 4 variables
    w = DegreeWindow(-8, 4)
    for i in range(I.ring.n + 2):
        assert ext_dimensions(I, i, w) == _ext_dimensions_direct(I, i, w), (I, i)


def test_tables_match_block_oracle_on_sweep():
    members = [I for I in all_strongly_stable(R3, 3) if not I.is_zero]
    assert len(members) == 64
    for I in members:
        w = lcm_window(I)
        full = oracle_table(I, w)
        assert local_cohomology_table(I, w) == full, I
        # each row is a running sum started at the row's top, so windows that
        # end short of it, miss it or lie wholly below it test the start offset
        top = max(j for _, j in full.entries)
        for edge in (DegreeWindow(top + 1, top + 3), DegreeWindow(w.lo - 3, w.lo - 1),
                     DegreeWindow(w.lo, w.lo), DegreeWindow(top, top)):
            assert local_cohomology_table(I, edge) == oracle_table(I, edge), (I, edge)


def test_import_leaves_numpy_out():
    src = Path(lexlab.__file__).resolve().parent.parent
    code = "import sys, lexlab; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# -- local cohomology tables ---------------------------------------------------------


def test_table_example_h0_row():
    t = local_cohomology_table(EXAMPLE, lcm_window(EXAMPLE))
    assert t.row(0) == {1: 2, 2: 2}


def test_table_h0_equals_saturation_quotient():
    rng = random.Random(71)
    for _ in range(15):
        I = random_ideal(rng, R3, max_gens=4, max_deg=3)
        if I.is_unit:
            continue
        t = local_cohomology_table(I, lcm_window(I))
        sat = saturate(I)
        for j in t.window.degrees():
            if j < 0:
                expected = 0
            else:
                expected = brute_ideal_dim(sat, j) - brute_ideal_dim(I, j)
            assert t.get(0, j) == expected, (I, j)


def test_table_principal_n2():
    t = local_cohomology_table(MonomialIdeal(R2, ((1, 0),)), DegreeWindow(-6, 4))
    for j in range(-6, 5):
        assert t.get(1, j) == (1 if j <= -1 else 0)
        assert t.get(0, j) == 0 and t.get(2, j) == 0


def test_table_zero_ideal_top_row():
    t = local_cohomology_table(MonomialIdeal(R2), DegreeWindow(-7, 2))
    for j in range(-7, 3):
        assert t.get(2, j) == (comb(-j - 1, 1) if j <= -2 else 0)


def test_grothendieck_vanishing_and_top_nonvanishing():
    from lexlab import dimension
    rng = random.Random(37)
    for _ in range(12):
        I = random_ideal(rng, R3, max_gens=4, max_deg=3)
        if I.is_unit:
            continue
        d = dimension(I)
        t = local_cohomology_table(I, lcm_window(I))
        rows = t.nonzero_rows()
        assert all(i <= d for i in rows), (I, rows, d)
        if d > 0:
            assert d in rows, (I, rows, d)


def test_regularity_bound_from_shifts():
    rng = random.Random(73)
    for _ in range(10):
        I = random_ideal(rng, R3, max_gens=4, max_deg=3)
        if I.is_unit or I.is_zero:
            continue
        tc = taylor_complex(I)
        maxreg = max(-s - k for k in range(tc.length + 1) for s in tc.shifts(k))
        t = local_cohomology_table(I, lcm_window(I))
        for (i, j), v in t.entries.items():
            assert j + i <= maxreg, (I, i, j)


def test_table_invariant_under_generator_permutation():
    gens = list(EXAMPLE.gens)
    rng = random.Random(5)
    rng.shuffle(gens)
    w = lcm_window(EXAMPLE)
    t1 = local_cohomology_table(EXAMPLE, w)
    t2 = local_cohomology_table(MonomialIdeal(R3, tuple(gens)), w)
    assert t1 == t2


def test_monotone_chain_small():
    rng = random.Random(83)
    for _ in range(8):
        I = random_stable_ideal(rng, R3, max_gens=2, max_deg=3)
        if I.is_unit or I.is_zero:
            continue
        L = lex_ideal(I)
        w = lcm_window(I, L)
        tI = local_cohomology_table(I, w)
        tL = local_cohomology_table(L, w)
        for i in range(4):
            for j in w.degrees():
                assert tI.get(i, j) <= tL.get(i, j), (I, i, j)


def test_monotone_chain_through_gin():
    from lexlab import gin
    rng = random.Random(91)
    samples = [TWO_PLANES]
    for _ in range(6):
        I = random_ideal(rng, R3, max_gens=3, max_deg=3)
        if not I.is_unit and not I.is_zero:
            samples.append(I)
    for I in samples[:4]:
        G = gin(I, trials=2, seed=0)
        L = lex_ideal(I)
        w = lcm_window(I, G, L)
        tI = local_cohomology_table(I, w)
        tG = local_cohomology_table(G, w)
        tL = local_cohomology_table(L, w)
        for i in range(I.ring.n + 1):
            for j in w.degrees():
                assert tI.get(i, j) <= tG.get(i, j) <= tL.get(i, j), (I, i, j)


# -- exact rows against the windowed oracle ----------------------------------------


def exact_families():
    """Every nonzero strongly stable ideal of Q[x,y] and Q[x,y,z] of degree <= 4
    and of Q[x,y,z,w] of degree <= 3."""
    for n, d in ((2, 4), (3, 4), (4, 3)):
        yield from (I for I in all_strongly_stable(RingSpec(n), d) if not I.is_zero)


def _exact_matches_windowed(I):
    L = lex_ideal(I)
    w = lcm_window(I, L)
    tI = local_cohomology_table(I, w)
    tL = local_cohomology_table(L, w)
    exact = tables_agree(I, L)
    assert (exact is None) == (windowed_mismatch(tI, tL, w) is None), I
    if exact is not None:
        i, j = exact
        assert tI.get(i, j) != tL.get(i, j), (I, exact)
        assert all(tI.get(i, d) == tL.get(i, d) for d in range(j + 1, w.hi + 1)), (I, exact)
        assert all(tI.row(r) == tL.row(r) for r in range(i)), (I, exact)
    assert _rigidity_member(I).equal_rows == windowed_rows_equal(tI, tL), I


def test_exact_verdicts_match_windowed_oracle_on_families():
    members = list(exact_families())
    assert len(members) == 730
    for I in members:
        _exact_matches_windowed(I)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_ideals().filter(lambda I: not I.is_unit and not is_strongly_stable(I)))
def test_exact_verdicts_match_windowed_oracle_on_unstable_ideals(I):
    _exact_matches_windowed(I)


def test_rows_vanish_above_their_exact_top():
    for I in exact_families():
        for J in (I, lex_ideal(I)):
            n = J.ring.n
            w = lcm_window(J)
            t = local_cohomology_table(J, w)
            tops = []
            for i, numerator in enumerate(_engine(J)):
                if not numerator:
                    assert not t.row(i), (J, i)
                    continue
                top = max(numerator) - n
                assert w.lo <= top <= w.hi and t.get(i, top), (J, i)
                assert all(t.get(i, j) == 0 for j in range(top + 1, w.hi + 1)), (J, i)
                tops.append(top)
            assert default_window(J).hi == max(tops + [1]), J


def _grothendieck_serre_on_numerators(I):
    """Whether sum_i (-1)^i N_i = (-1)^n times the Hilbert series numerator.
    C(d - k + n - 1, n - 1) and its polynomial in d differ by exactly
    (-1)^n C(k - d - 1, n - 1) when k - d >= n, so the identity
    H(R/I) - P(R/I) = sum_i (-1)^i h^i(R/I) holds numerator by numerator."""
    n = I.ring.n
    alternating = {}
    for i, numerator in enumerate(_engine(I)):
        for k, c in numerator.items():
            alternating[k] = alternating.get(k, 0) + (-1) ** i * c
    expected = {k: (-1) ** n * c for k, c in enumerate(hilbert_numerator(I)) if c}
    return {k: c for k, c in alternating.items() if c} == expected


def test_grothendieck_serre_on_numerators_of_families():
    for I in exact_families():
        for J in (I, lex_ideal(I)):
            assert _grothendieck_serre_on_numerators(J), J
    for n in range(1, 5):
        assert _grothendieck_serre_on_numerators(MonomialIdeal(RingSpec(n))), n


@settings(max_examples=200, deadline=None, derandomize=True)
@given(proper_monomial_ideals())
def test_grothendieck_serre_on_numerators_of_hypothesis_ideals(I):
    assert _grothendieck_serre_on_numerators(I), I


def test_grothendieck_serre_on_numerators_of_large_exponents():
    # cells hundreds or thousands of degrees wide, one product each
    for I in (MonomialIdeal(R3, ((2000, 0, 0), (0, 2000, 0), (0, 0, 2000))),
              MonomialIdeal(R4, tuple(tuple(300 * (t == j) for t in range(4))
                                      for j in range(4))),
              MonomialIdeal(R4, ((100, 100, 0, 0), (0, 100, 100, 0), (0, 0, 100, 100),
                                 (100, 0, 0, 100)))):
        assert _grothendieck_serre_on_numerators(I), I


# Lex ideals of a few hundred generators: seconds each through the Takayama
# cells, so only the closed form runs them
def large_stable_ideals():
    R5 = RingSpec(5)
    return [lex_ideal(MonomialIdeal(R2, ((200, 0), (0, 200)))),
            lex_ideal(MonomialIdeal(R4, ((2, 2, 0, 0), (0, 0, 3, 1)))),
            lex_ideal(MonomialIdeal(R5, tuple((3 - a, a, 0, 0, 0) for a in range(4))))]


def test_grothendieck_serre_on_numerators_of_large_stable_ideals():
    ideals = large_stable_ideals()
    assert [len(I.gens) for I in ideals] == [201, 287, 265]
    for I in ideals:
        assert _grothendieck_serre_on_numerators(I), I


def test_adjoining_a_variable_prepends_an_empty_row():
    # the tail sums of the extension recursion keep every numerator
    for n, d in ((2, 4), (3, 3)):
        for I in all_strongly_stable(RingSpec(n), d):
            if I.is_zero:
                continue
            for J in (I, lex_ideal(I)):
                bigger = MonomialIdeal(RingSpec(n + 1), tuple(g + (0,) for g in J.gens))
                assert _engine(bigger) == ({},) + _engine(J), J


def test_tables_agree_gives_the_top_of_the_lowest_differing_row():
    L = lex_ideal(TWO_PLANES)
    assert tables_agree(TWO_PLANES, L) == (0, 1)
    assert tables_agree(L, TWO_PLANES) == (0, 1)
    assert tables_agree(TWO_PLANES, TWO_PLANES) is None
    with pytest.raises(ValueError):
        tables_agree(EXAMPLE, TWO_PLANES)


def test_equal_ideals_compare_no_rows(monkeypatch):
    # two instances with the same value: no row is built, on either route
    def refuse(ideal):
        raise AssertionError(f"rows built for {ideal}")

    monkeypatch.setattr(cohomology, "_herzog_sbarra_rows", refuse)
    monkeypatch.setattr(cohomology, "_takayama_rows", refuse)
    _engine.cache_clear()
    for I in (EXAMPLE, TWO_PLANES, MonomialIdeal(R3)):
        copy = MonomialIdeal(I.ring, tuple(reversed(I.gens)))
        assert copy is not I and copy == I
        assert cohomology.equal_rows(I, copy) == (True,) * (I.ring.n + 1), I
        assert tables_agree(I, copy) is None, I
        assert sequentially_cm_verdict(I, gin_ideal=copy) is SequentialCMVerdict.CONSISTENT
    assert _rigidity_member(lex_ideal(EXAMPLE)).equal_rows == (True,) * 4
    assert _engine.cache_info().misses == 0


# -- depth, dim, sequential CM -------------------------------------------------------


def test_depth_and_dim_examples():
    assert depth_and_dim(EXAMPLE) == (0, 1)
    assert depth_and_dim(MonomialIdeal(R3, ((1, 0, 0), (0, 1, 0)))) == (1, 1)
    assert depth_and_dim(TWO_PLANES) == (1, 2)
    assert depth_and_dim(MonomialIdeal(R3)) == (3, 3)
    with pytest.raises(ValueError):
        depth_and_dim(MonomialIdeal(R3, ((0, 0, 0),)))


def test_positive_depth_of_stable_ideals_three_ways():
    # for strongly stable I: depth(R/I) > 0, I saturated, and no generator
    # involving the last variable are one condition
    members = [I for ring, top in ((R2, 4), (R3, 4), (R4, 3))
               for I in all_strongly_stable(ring, top) if not I.is_zero]
    ideals = members + [lex_ideal(I) for I in members]
    assert len(ideals) == 1460
    for I in ideals:
        positive = depth_and_dim(I)[0] > 0
        assert positive == (saturate(I) == I) == all(g[-1] == 0 for g in I.gens), I


def test_depth_of_large_stable_ideals_by_the_last_variable():
    # depth_and_dim checks its row depth against n - max index of a variable
    # dividing a generator (Eliahou-Kervaire) on strongly stable input
    for I in large_stable_ideals():
        depth = depth_and_dim(I)[0]
        assert depth == I.ring.n - 1 - max(t for g in I.gens for t, e in enumerate(g) if e), I
        assert (depth > 0) == (saturate(I) == I) == all(g[-1] == 0 for g in I.gens), I


def test_sequentially_cm_verdicts():
    assert sequentially_cm_verdict(EXAMPLE) is SequentialCMVerdict.CONSISTENT
    assert sequentially_cm_verdict(TWO_PLANES) is SequentialCMVerdict.NOT_SEQUENTIALLY_CM
    xy = MonomialIdeal(R3, ((1, 0, 0), (0, 1, 0)))
    assert sequentially_cm_verdict(xy) is SequentialCMVerdict.CONSISTENT


# -- adjoining a variable: the extension-recursion oracle ----------------------------


def test_adjoin_variable_squares():
    I1 = MonomialIdeal(R1, ((2,),))
    t1 = local_cohomology_table(I1, DegreeWindow(-4, 3))
    assert t1.row(0) == {0: 1, 1: 1}
    out = adjoin_variable(t1, DegreeWindow(-3, 3))
    assert out.row(0) == {}
    assert out.row(1) == {-3: 2, -2: 2, -1: 2, 0: 1}
    direct = local_cohomology_table(MonomialIdeal(R2, ((2, 0),)), DegreeWindow(-3, 3))
    assert out == direct


def test_adjoin_variable_zero_table():
    empty = LCTable(2, DegreeWindow(-3, 3), {})
    out = adjoin_variable(empty, DegreeWindow(-2, 3))
    assert out.entries == {}


def test_adjoin_variable_example_values():
    t = local_cohomology_table(EXAMPLE, lcm_window(EXAMPLE))
    out = adjoin_variable(t, DegreeWindow(-5, 4))
    # tail sums of h^0 = {1: 2, 2: 2}: zero above degree 1, then 2, then 4
    assert out.get(1, 3) == 0 and out.get(1, 2) == 0
    assert out.get(1, 1) == 2
    assert out.get(1, 0) == 4 and out.get(1, -3) == 4


def test_adjoin_variable_window_validation():
    t = local_cohomology_table(EXAMPLE, lcm_window(EXAMPLE))
    with pytest.raises(ValueError):
        adjoin_variable(t, DegreeWindow(t.window.lo - 2, 0))


def _spread(gens, front: int, n: int) -> MonomialIdeal:
    """The ideal of gens on the first `front` and the last k - front of n
    variables, k the length of each generator."""
    k = len(gens[0])
    places = [*range(front), *range(n - k + front, n)]
    exps = []
    for g in gens:
        u = [0] * n
        for place, e in zip(places, g):
            u[place] = e
        exps.append(tuple(u))
    return MonomialIdeal(RingSpec(n), tuple(exps))


@pytest.mark.parametrize("gens, front", [(((1, 1),), 2), (((1, 1),), 0),
                                         (((2, 0, 0, 1), (0, 1, 3, 0)), 2),
                                         (((2, 0), (1, 1)), 1)],
                         ids=["x1*x2", "xn-1*xn", "x1^2*xn,x2*xn-1^3", "x1^2,x1*xn"])
def test_variables_dividing_no_generator_adjoin_their_tail_sums(gens, front):
    # Takayama's route walks only the sign patterns of the variables in use;
    # each variable in no generator must still add its tail sums
    window = lcm_window(_spread(gens, front, 8))
    table = local_cohomology_table(_spread(gens, front, len(gens[0])), window)
    for n in range(len(gens[0]) + 1, 9):
        direct = local_cohomology_table(_spread(gens, front, n), window)
        table = adjoin_variable(table, window)
        assert direct == table, n


def test_adjoin_variable_matches_direct_on_samples():
    rng = random.Random(97)
    for _ in range(6):
        n = rng.randint(1, 3)
        I = random_ideal(rng, RingSpec(n), max_gens=3, max_deg=3)
        if I.is_unit:
            continue
        win = lcm_window(I)
        t = local_cohomology_table(I, win)
        out_window = DegreeWindow(win.lo + 1, win.hi)
        out = adjoin_variable(t, out_window)
        bigger = MonomialIdeal(RingSpec(n + 1), tuple(g + (0,) for g in I.gens))
        direct = local_cohomology_table(bigger, out_window)
        assert out == direct, I


# -- the closed form for strongly stable ideals against Takayama's cells ----------


def _closed_form_matches_takayama(I):
    assert strong_stability_witness(I) is None, I
    assert _herzog_sbarra_rows(I) == _takayama_rows(I), I
    assert eliahou_kervaire(I.gens) == hilbert_numerator(I), I


@st.composite
def stable_ideals(draw):
    # a seed, as for small_ideals; 5 variables and degree 6 take Takayama minutes
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_stable_ideal(rng, RingSpec(rng.randint(1, 4)), max_gens=3, max_deg=5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stable_ideals())
@example(MonomialIdeal(R3))
@example(MonomialIdeal(R3, ((0, 0, 0),)))
@example(MonomialIdeal(R1))
@example(MonomialIdeal(R1, ((4,),)))
def test_closed_form_matches_takayama_on_random_stable_ideals(I):
    _closed_form_matches_takayama(I)
    if not I.is_unit:
        _closed_form_matches_takayama(lex_ideal(I))


def test_closed_form_matches_takayama_on_families():
    members = [I for n, d in ((2, 4), (3, 4), (4, 3), (5, 2))
               for I in all_strongly_stable(RingSpec(n), d) if not I.is_zero]
    ideals = members + [lex_ideal(I) for I in members]
    assert len(ideals) == 1584
    for I in ideals:
        _closed_form_matches_takayama(I)


def test_engine_takes_the_closed_form_exactly_on_strongly_stable_input():
    stable = lex_ideal(EXAMPLE)
    assert _engine(stable) == _herzog_sbarra_rows(stable)
    assert not is_strongly_stable(TWO_PLANES)
    assert _engine(TWO_PLANES) == _takayama_rows(TWO_PLANES)


# -- the closed form from the generators that change between links ---------------


def test_closed_form_matches_the_per_link_oracle_on_families_and_lex_ideals():
    # rows from the changed generators against the numerator of every link,
    # grouped Eliahou-Kervaire against one expansion per generator
    members = [I for n, d in ((1, 4), (2, 6), (3, 5), (4, 4), (5, 3))
               for I in all_strongly_stable(RingSpec(n), d)]
    lexes = [lex_ideal(I) for I in members if not I.is_zero]
    lexes += [lex_ideal(I) for I in non_stable_ideals()]
    large = lex_ideal(MonomialIdeal(RingSpec(5), ((2, 0, 2, 0, 0), (0, 1, 0, 1, 1))))
    assert len(large.gens) == 6231
    ideals = members + lexes + [large]
    assert len(ideals) == 28886
    for I in ideals:
        assert _herzog_sbarra_rows(I) == rows_per_link(I), I
        assert eliahou_kervaire(I.gens) == eliahou_kervaire_per_generator(I.gens), I


@pytest.mark.parametrize("I, last_row", [
    (MonomialIdeal(R1), {0: 1}),
    (MonomialIdeal(R1, ((0,),)), {}),
    (MonomialIdeal(R3), {0: 1}),
    (MonomialIdeal(R3, ((0, 0, 0),)), {}),
    (MonomialIdeal(R1, ((1,),)), {}),
    # (x1, x2, x3): the first projection, its saturation, is already the unit
    (MonomialIdeal(R3, ((1, 0, 0), (0, 1, 0), (0, 0, 1))), {}),
    # (x1, x2^2) is saturated, so the first two links are equal
    (MonomialIdeal(R3, ((1, 0, 0), (0, 2, 0))), {}),
])
def test_closed_form_on_zero_unit_and_equal_links(I, last_row):
    assert is_strongly_stable(I)
    rows = _engine(I)
    assert rows == rows_per_link(I) == _takayama_rows(I), I
    assert rows[-1] == last_row
    assert (rows[0] == {}) == (saturate(I) == I)


def test_the_chain_projects_only_down_to_the_first_link(monkeypatch):
    # M_0 is the unit ideal for I != 0 and the zero ideal for I = 0, so the
    # rows project for k = n - 1, ..., 1 and never for k = 0
    ks = []
    project = cohomology.projection
    monkeypatch.setattr(cohomology, "projection", lambda gens, k: ks.append(k) or project(gens, k))
    members = list(all_strongly_stable(R4, 3))
    assert len(members) == 351
    _engine.cache_clear()
    for I in members:
        _engine(I)
    assert ks == [3, 2, 1] * len(members)


def test_the_inline_fill_matches_the_hilbert_values_fill():
    # the running sums taken inline against the reflected numerator expanded
    # by hilbert_values, on the default window and on windows cut at a row's
    # top or bottom or lying wholly above or below it
    members = [I for n in (1, 2, 3, 4) for I in all_strongly_stable(RingSpec(n), 3)]
    ideals = members + [lex_ideal(I) for I in members if not I.is_zero] + non_stable_ideals()
    ideals += [MonomialIdeal(ring, gens) for ring in (R1, R3) for gens in ((), ((0,) * ring.n,))]
    assert len(ideals) == 1170
    for I in ideals:
        default, n = default_window(I), I.ring.n
        windows = [default, DegreeWindow(-3, 1)]
        for numerator in filter(None, _engine(I)):
            top, bottom = max(numerator) - n, min(numerator) - n
            windows += [DegreeWindow(default.lo, top - 1), DegreeWindow(bottom + 1, default.hi),
                        DegreeWindow(top + 1, top + 3), DegreeWindow(bottom - 4, bottom - 1)]
        for window in windows:
            assert local_cohomology_table(I, window) == table_by_hilbert_values(I, window), \
                (I, window)


def test_closed_form_rows_take_no_link_numerator(monkeypatch):
    # the rows expand only the generators that change between links, so no
    # link's whole Eliahou-Kervaire numerator and no numerator difference
    calls = []

    def counting(function):
        def counted(*args):
            calls.append(function.__name__)
            return function(*args)
        return counted

    for name in ("eliahou_kervaire", "poly_sub"):
        counted = counting(getattr(hilbert, name))
        monkeypatch.setattr(hilbert, name, counted)
        monkeypatch.setattr(cohomology, name, counted, raising=False)
    members = [I for I in all_strongly_stable(R4, 3) if 8 <= len(I.gens) <= 10]
    assert len(members) == 109
    _engine.cache_clear()
    for I in members:
        local_cohomology_table(I)
    assert calls == []
