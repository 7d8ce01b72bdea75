"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest
from helpers import (brute_quotient_dim, grothendieck_serre_failures, non_stable_ideals,
                     random_ideal, random_stable_ideal)
from hilbert_oracle import _numerator_inclusion_exclusion, macaulay_rep
from window_oracle import adjoin_variable, lcm_window

from lexlab import (DegreeWindow, FamilySpec, MonomialIdeal, RingSpec,
                    enumerate_strongly_stable, exchange_property, gin, gotzmann,
                    gotzmann_representation, is_gotzmann, lex_ideal,
                    local_cohomology_table, all_strongly_stable, saturate,
                    saturated_lex_generators, hilbert_series, tables_agree,
                    lex_ideal_from_values, strong_stability_witness, verify_main)
from lexlab.groebner import _gin_trials
from lexlab.hilbert import hilbert_numerator, values_from_numerator
from lexlab.reports import VERDICT_VIOLATION

R2 = RingSpec(2)
R3 = RingSpec(3)
R4 = RingSpec(4)
R5 = RingSpec(5)
EXAMPLE = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 2), (0, 1, 2)))
EXAMPLE_LEX = MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 3, 0),
                                 (0, 2, 1), (0, 1, 2)))


def report(number, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d}: {status}  ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def sweep():
    members = [I for I in all_strongly_stable(R3, 3) if not I.is_zero]
    data = []
    for I in members:
        lex = lex_ideal(I)
        data.append((I, lex, lcm_window(I, lex)))
    return data


def test_criterion_1_example_reproduction():
    t0 = time.time()
    ok = lex_ideal(EXAMPLE) == EXAMPLE_LEX
    xy = MonomialIdeal(R3, ((1, 0, 0), (0, 1, 0)))
    rep = exchange_property(EXAMPLE)
    ok = ok and rep.holds and rep.left == xy and rep.right == xy
    elapsed = time.time() - t0
    report(1, ok and elapsed < 5.0, elapsed, "lex ideal and exchange on the worked example")


def test_criterion_2_tables_on_example():
    t0 = time.time()
    w = DegreeWindow(-10, 6)
    tI = local_cohomology_table(EXAMPLE, w)
    ok = tables_agree(EXAMPLE, EXAMPLE_LEX) is None
    ok = ok and tI.row(0) == {1: 2, 2: 2}
    elapsed = time.time() - t0
    report(2, ok and elapsed < 30.0, elapsed,
           "cohomology tables agree in every degree; h^0 shown on [-10, 6]")


def test_criterion_3_negative_control():
    t0 = time.time()
    I = MonomialIdeal(R4, ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)))
    rep = exchange_property(I)
    left = MonomialIdeal(R4, ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
                              (0, 3, 0, 0), (0, 2, 1, 0)))
    right = MonomialIdeal(R4, ((1, 0, 0, 0), (0, 3, 0, 0), (0, 2, 1, 0)))
    ok = not rep.holds and rep.left == left and rep.right == right
    ok = ok and tables_agree(I, lex_ideal(I)) == (0, 1)
    report(3, ok, time.time() - t0, "two-planes ideal fails (i) and (ii) at (0, 1)")


def test_criterion_4_equivalence_sweep(sweep):
    t0 = time.time()
    violations = []
    for I, lex, _ in sweep:
        cond_i = exchange_property(I).holds
        cond_ii = tables_agree(I, lex) is None
        if cond_i != cond_ii:
            violations.append(I)
    elapsed = time.time() - t0
    report(4, not violations and elapsed < 15 * 60, elapsed,
           f"(i) iff (ii) across {len(sweep)} strongly stable ideals, "
           f"{len(violations)} violations")


def test_criterion_5_monotone_chain(sweep):
    t0 = time.time()
    bad = []
    for I, lex, w in sweep:
        g = gin(I, trials=3, seed=0)
        tI = local_cohomology_table(I, w)
        tG = local_cohomology_table(g, w)
        tL = local_cohomology_table(lex, w)
        for i in range(R3.n + 1):
            for j in w.degrees():
                if not tI.get(i, j) <= tG.get(i, j) <= tL.get(i, j):
                    bad.append((I, i, j))
    report(5, not bad, time.time() - t0,
           f"h^i(R/I) <= h^i(R/gin I) <= h^i(R/I^lex) across {len(sweep)} ideals")


def test_criterion_6_extension_oracle():
    t0 = time.time()
    rng = random.Random(2024)
    checked = 0
    ok = True
    while checked < 25:
        n = rng.randint(1, 3)
        I = random_stable_ideal(rng, RingSpec(n), max_gens=2, max_deg=3)
        if I.is_unit:
            continue
        win = lcm_window(I)
        table = local_cohomology_table(I, win)
        out_window = DegreeWindow(win.lo + 1, win.hi)
        extended = adjoin_variable(table, out_window)
        bigger = MonomialIdeal(RingSpec(n + 1), tuple(g + (0,) for g in I.gens))
        direct = local_cohomology_table(bigger, out_window)
        if extended != direct:
            ok = False
            break
        checked += 1
    report(6, ok, time.time() - t0,
           f"variable-adjunction recursion matches direct tables on {checked} samples")


def test_criterion_7_gotzmann_and_roundtrip():
    t0 = time.time()
    rng = random.Random(777)
    found = 0
    ok = True
    for _ in range(60):
        I = random_ideal(rng, R3, max_gens=4, max_deg=3)
        if I.is_unit or I.is_zero:
            continue
        lex = lex_ideal(I)
        if lex == saturate(lex):
            found += 1
            if not is_gotzmann(I):
                ok = False
                break
    ok = ok and found >= 5
    # quotients with the Hilbert polynomials 1, 2X + 2 and 3X + 1: a point
    # in P^2, two skew lines and a double line in P^3
    targets = [(((1, 0, 0), (0, 1, 0)), (1,), (0, 1)),
               (((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)), (2, 2), (0, 2, 1)),
               (((2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)), (1, 3), (0, 3, 1))]
    for gens, coeffs, v in targets:
        n = len(gens[0])
        target = MonomialIdeal(RingSpec(n), gens)
        g = gotzmann_representation(hilbert_numerator(target), n)
        if g.v != v:
            ok = False
            break
        built = saturated_lex_generators(g)
        data = hilbert_series(built, built.max_generator_degree() + n + 3)
        if not (data.polynomial == hilbert_series(target).polynomial
                == tuple(Fraction(c) for c in coeffs)):
            ok = False
            break
    report(7, ok, time.time() - t0,
           f"saturated-lex implies Gotzmann ({found} hits) and v-vector round trips")


def test_criterion_8_gin_suite():
    # the fixed point by trials: gin itself returns a strongly stable ideal
    t0 = time.time()
    ok = _gin_trials(EXAMPLE, trials=3, seed=0) == EXAMPLE
    ok = ok and gin(MonomialIdeal(R3, ((1, 1, 0), (1, 0, 1))), trials=3, seed=0) \
        == MonomialIdeal(R3, ((2, 0, 0), (1, 1, 0)))
    rng = random.Random(88)
    checked = 0
    while ok and checked < 20:
        I = random_ideal(rng, R3, max_gens=3, max_deg=3)
        if I.is_unit:
            continue
        for seed in (0, 1):
            g_of_sat = gin(saturate(I), trials=3, seed=seed)
            sat_of_g = saturate(gin(I, trials=3, seed=seed))
            if g_of_sat != sat_of_g or strong_stability_witness(g_of_sat) is not None:
                ok = False
                break
        checked += 1
    report(8, ok, time.time() - t0,
           f"gin fixed points, gin((xy,xz)), and commutation on {checked} samples x 2 seeds")


def test_criterion_9_principal_duality():
    t0 = time.time()
    ok = True
    rng = random.Random(9)
    for n in (2, 3):
        ring = RingSpec(n)
        for d in range(1, 6):
            shapes = {tuple(d if t == 0 else 0 for t in range(n))}
            for _ in range(2):
                e = [0] * n
                for _ in range(d):
                    e[rng.randrange(n)] += 1
                shapes.add(tuple(e))
            for f in shapes:
                I = MonomialIdeal(ring, (f,))
                table = local_cohomology_table(I, lcm_window(I))
                for j in table.window.degrees():
                    m = d - n - j
                    expected = (comb(m + n - 1, n - 1) if m >= 0 else 0) \
                        - (comb(m - d + n - 1, n - 1) if m - d >= 0 else 0)
                    if table.get(n - 1, j) != expected:
                        ok = False
    report(9, ok, time.time() - t0,
           "h^(n-1) of principal quotients matches dim(R/f)_(deg f - n - j)")


def test_criterion_10_hilbert_engine():
    t0 = time.time()
    rng = random.Random(1010)
    ok = True
    for _ in range(200):
        n = rng.randint(2, 4)
        I = random_ideal(rng, RingSpec(n), max_gens=6, max_deg=5)
        num_pivot = hilbert_numerator(I)
        num_ie = _numerator_inclusion_exclusion(n, I.gens)
        if num_pivot != num_ie:
            ok = False
            break
        values = values_from_numerator(num_pivot, n, 9)
        brute = [brute_quotient_dim(I, d) for d in range(10)]
        if values != brute:
            ok = False
            break
        for d in range(1, 9):
            if brute[d] and brute[d + 1] > macaulay_rep(brute[d], d).growth():
                ok = False
                break
    elapsed = time.time() - t0
    report(10, ok and elapsed < 300, elapsed,
           "pivot = test oracle = enumeration on 200 ideals, growth bound holds")


def test_criterion_11_r4_equivalence_sweep():
    t0 = time.time()
    members = [I for I in all_strongly_stable(R4, 3) if not I.is_zero]
    reports = [verify_main(I) for I in members]
    violations = [r.ideal for r in reports if r.verdict == VERDICT_VIOLATION]
    inconclusive = [r.ideal for r in reports if not r.conclusive]
    holds = sum(r.condition_i for r in reports)
    lex = lex_ideal_from_values(R4, (1, 4, 6, 4, 2, 1))
    table = local_cohomology_table(lex, lcm_window(lex))
    gs_failures = grothendieck_serre_failures(lex, table)
    elapsed = time.time() - t0
    ok = (len(members) == 350 and not violations and not inconclusive
          and len(lex.gens) == 14 and not gs_failures)
    report(11, ok and elapsed < 120, elapsed,
           f"(i) iff (ii) across {len(members)} strongly stable ideals in four variables "
           f"({holds} with the exchange), {len(violations)} violations, "
           f"{len(inconclusive)} inconclusive; 14-generator lex table satisfies "
           f"Grothendieck-Serre")


def test_criterion_12_non_stable_sweep():
    t0 = time.time()
    members = non_stable_ideals()
    reports = [verify_main(I) for I in members]
    violations = [r.ideal for r in reports if r.verdict == VERDICT_VIOLATION]
    inconclusive = [r.ideal for r in reports if not r.conclusive]
    holds = sum(r.condition_i for r in reports)
    elapsed = time.time() - t0
    ok = not violations and not inconclusive and 0 < holds < len(members)
    report(12, ok and elapsed < 60, elapsed,
           f"(i) iff (ii) across {len(members)} random ideals that are not strongly "
           f"stable ({holds} with the exchange), {len(violations)} violations, "
           f"{len(inconclusive)} inconclusive")


def test_criterion_13_verify_main_builds_no_fraction(monkeypatch):
    # lex ideals, saturations, tables and gin all run on integers, so the
    # paper's check needs no rational arithmetic at all
    t0 = time.time()
    r3 = [I for I in all_strongly_stable(R3, 3) if not I.is_zero]
    r4 = [I for I in all_strongly_stable(R4, 3) if not I.is_zero]
    made = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    gotzmann._lex_by_numerator.cache_clear()
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for I in r3:
        verify_main(I, include_gin=True)
        _gin_trials(I)   # the trials, which gin skips on these strongly stable members
    for I in r4:
        verify_main(I)
    monkeypatch.undo()
    ok = (len(r3), len(r4), made[0]) == (64, 350, 0)
    report(13, ok, time.time() - t0,
           f"{made[0]} Fractions built by verify_main over R3 and R4, degree <= 3")


def test_criterion_14_r5_equivalence_sweep():
    t0 = time.time()
    members = [I for I in all_strongly_stable(R5, 3) if not I.is_zero]
    reports = [verify_main(I) for I in members]
    violations = [r.ideal for r in reports if r.verdict == VERDICT_VIOLATION]
    holds = sum(r.condition_i for r in reports)
    elapsed = time.time() - t0
    ok = len(members) == 2429 and not violations
    report(14, ok and elapsed < 60, elapsed,
           f"(i) iff (ii) across {len(members)} strongly stable ideals in five variables "
           f"({holds} with the exchange), {len(violations)} violations")


def test_criterion_15_complete_families():
    # one family per Hilbert function of the nonzero members of R3 d <= 4 and
    # R5 d <= 2, each capped at its lex ideal's top degree and so complete
    t0 = time.time()
    counts, holds, violations, broken = [], 0, [], []
    for ring, d in ((R3, 4), (R5, 2)):
        targets = {}
        for ideal in all_strongly_stable(ring, d):
            if not ideal.is_zero:
                targets.setdefault(hilbert_numerator(ideal), ideal)
        members = 0
        for numerator, target in targets.items():
            lex = lex_ideal(target)
            family = list(enumerate_strongly_stable(
                FamilySpec(ring, target, lex.max_generator_degree())))
            if lex not in family or any(hilbert_numerator(J) != numerator for J in family):
                broken.append(target)
            reports = [verify_main(J) for J in family]
            violations += [r.ideal for r in reports if r.verdict == VERDICT_VIOLATION]
            holds += sum(r.condition_i for r in reports)
            members += len(family)
        counts.append((len(targets), members))
    elapsed = time.time() - t0
    ok = counts == [(236, 483), (62, 145)] and not broken and not violations
    report(15, ok and elapsed < 20, elapsed,
           f"complete families of {counts} (Hilbert functions, members) in R3 and R5 "
           f"({holds} members with the exchange), {len(broken)} broken families, "
           f"{len(violations)} violations")
