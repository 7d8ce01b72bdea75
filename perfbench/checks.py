"""Answer checks, run after the timed region of every pass.

Each check returns a list of problem strings; an empty list means the answer
passed.  Strong stability, saturation and the Hilbert function/polynomial
values are recomputed here from the generators, so the local-cohomology
engine is checked against the Hilbert layer rather than against itself.
The only library computation the checks rely on is
``hilbert.hilbert_numerator``.
"""

from __future__ import annotations

from math import comb, factorial


def _divides(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


def _member(gens, u) -> bool:
    return any(_divides(g, u) for g in gens)


def strongly_stable(ideal) -> bool:
    """Every move x_i * u / x_j (i < j, x_j | u) of a generator stays inside."""
    gens = ideal.gens
    for u in gens:
        for j in range(1, len(u)):
            if not u[j]:
                continue
            for i in range(j):
                moved = list(u)
                moved[i] += 1
                moved[j] -= 1
                if not _member(gens, moved):
                    return False
    return True


def _is_unit(ideal) -> bool:
    return any(not any(g) for g in ideal.gens)


def saturated(ideal) -> bool:
    """For a strongly stable ideal, saturated iff no minimal generator
    involves the last variable (Bayer-Stillman)."""
    if _is_unit(ideal):
        return True
    return strongly_stable(ideal) and all(g[-1] == 0 for g in ideal.gens)


def saturation(lexlab, ideal):
    """Saturation of a strongly stable ideal: set the last variable to 1."""
    return lexlab.MonomialIdeal(ideal.ring, tuple(g[:-1] + (0,) for g in ideal.gens))


def hilbert_value(num, n: int, j: int) -> int:
    """H(R/I, j) from HS = N(t) / (1-t)^n."""
    return sum(c * comb(j - k + n - 1, n - 1) for k, c in enumerate(num) if j >= k)


def hilbert_poly_value(num, n: int, j: int) -> int:
    """P(R/I, j): each binom(m + n - 1, n - 1) read as a polynomial in m."""
    total = 0
    for k, c in enumerate(num):
        prod = 1
        for t in range(1, n):
            prod *= j - k + t
        total += c * (prod // factorial(n - 1))
    return total


def grothendieck_serre(lexlab, ideal, table) -> list[str]:
    """sum_i (-1)^i h^i_j == H(R/I, j) - P(R/I, j) on the table's whole window."""
    n = ideal.ring.n
    num = lexlab.hilbert.hilbert_numerator(ideal)
    for j in table.window.degrees():
        chi = sum((-1) ** i * table.get(i, j) for i in range(n + 1))
        expected = hilbert_value(num, n, j) - hilbert_poly_value(num, n, j)
        if chi != expected:
            return [f"Grothendieck-Serre fails for {ideal} at degree {j}: "
                    f"sum (-1)^i h^i = {chi}, H - P = {expected}"]
    return []


def same_hilbert(lexlab, ideal, other, what: str) -> list[str]:
    """other is strongly stable with the same Hilbert numerator as ideal."""
    problems = []
    if not strongly_stable(other):
        problems.append(f"{what} {other} of {ideal} is not strongly stable")
    if lexlab.hilbert.hilbert_numerator(other) != lexlab.hilbert.hilbert_numerator(ideal):
        problems.append(f"{what} {other} of {ideal} has another Hilbert numerator")
    return problems


def exchange_sides(lexlab, ideal, left, right, holds) -> list[str]:
    """right = (I^lex)^sat is saturated; left = (I^sat)^lex is the lex ideal of
    I^sat, which is saturated only when the exchange holds (then left == right)."""
    problems = []
    if not saturated(right):
        problems.append(f"(I^lex)^sat = {right} of {ideal} is not saturated")
    sat = saturation(lexlab, ideal)
    if _is_unit(sat):
        if not _is_unit(left):
            problems.append(f"(I^sat)^lex = {left} of {ideal} is not the unit ideal")
    else:
        problems += same_hilbert(lexlab, sat, left, "(I^sat)^lex")
    if holds != (left == right):
        problems.append(f"exchange verdict {holds} of {ideal} contradicts its sides")
    return problems


def check_exchange(lexlab, ideal, answer) -> list[str]:
    lex, exchange = answer
    return (same_hilbert(lexlab, ideal, lex, "lex ideal")
            + exchange_sides(lexlab, ideal, exchange.left, exchange.right, exchange.holds))


def check_report(lexlab, ideal, report) -> list[str]:
    """A verify_main report with gin: every part is checked on its own."""
    problems = (same_hilbert(lexlab, ideal, report.lex, "lex ideal")
                + same_hilbert(lexlab, ideal, report.gin, "gin")
                + exchange_sides(lexlab, ideal, report.sat_then_lex, report.lex_then_sat,
                                 report.condition_i)
                + grothendieck_serre(lexlab, ideal, report.table_ideal)
                + grothendieck_serre(lexlab, report.lex, report.table_lex))
    if report.verdict == lexlab.reports.VERDICT_VIOLATION:
        problems.append(f"verify_main reports a theorem violation on {ideal}")
    equal_tables = all(report.table_ideal.get(i, j) == report.table_lex.get(i, j)
                       for i in range(ideal.ring.n + 1) for j in report.window.degrees())
    if equal_tables != report.condition_ii_on_window:
        problems.append(f"condition (ii) of {ideal} contradicts its tables")
    if report.conclusive and report.condition_i != equal_tables:
        problems.append(f"condition (i) != condition (ii) on a conclusive window for {ideal}")
    return problems


def self_test(lexlab) -> list[str]:
    """The checks must reject a table with one altered entry and a lex ideal
    with one generator removed; returns the checks that failed to."""
    ring = lexlab.RingSpec(3)
    ideal = lexlab.parse_ideal("x^2, x*y, y^2, x*z^2, y*z^2", ring)
    table = lexlab.local_cohomology_table(ideal)
    lex = lexlab.lex_ideal(ideal)
    failures = []
    if grothendieck_serre(lexlab, ideal, table) or same_hilbert(lexlab, ideal, lex, "lex ideal"):
        failures.append("the checks reject a correct table or lex ideal")
    (i, j), v = next(iter(sorted(table.entries.items())))
    altered = dict(table.entries)
    altered[(i, j)] = v + 1
    bad_table = lexlab.cohomology.LCTable(table.nvars, table.window, altered)
    if not grothendieck_serre(lexlab, ideal, bad_table):
        failures.append("a table with one altered entry passed the check")
    short_lex = lexlab.MonomialIdeal(ring, lex.gens[:-1])
    if not same_hilbert(lexlab, ideal, short_lex, "lex ideal"):
        failures.append("a lex ideal with one generator removed passed the check")
    return failures
