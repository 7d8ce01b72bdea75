"""Verification reports for the lex/saturation equivalence and the rigidity probe."""

from __future__ import annotations

from functools import cached_property

from .cohomology import (DegreeWindow, LCTable, SequentialCMVerdict, default_window,
                         equal_rows, local_cohomology_table, sequentially_cm_verdict,
                         tables_agree)
from .errors import InternalInconsistency
from .families import FamilySpec, enumerate_strongly_stable
from .gotzmann import ExchangeReport, exchange_property, lex_ideal
from .ideals import MonomialIdeal
from .parsing import parse_monomial, parse_ring

VERDICT_CONSISTENT = "consistent"
VERDICT_VIOLATION = "THEOREM VIOLATION"


def ideal_to_json(ideal: MonomialIdeal) -> dict:
    return {"ring": list(ideal.ring.names),
            "gens": [ideal.ring.monomial_str(g) for g in ideal.gens]}


def ideal_from_json(data: dict) -> MonomialIdeal:
    ring = parse_ring(",".join(data["ring"]))
    return MonomialIdeal(ring, tuple(parse_monomial(g, ring) for g in data["gens"]))


class VerificationReport:
    """The verdict compares `condition_i`, read from row 0 of the tables,
    with `condition_ii_on_window`, from every row; `gin`, `seq_cm` and
    `condition_iii` are filled in when gin was asked for.  `window`,
    `table_ideal`, `table_lex` and the exchange sides `sat_then_lex` and
    `lex_then_sat` only display the check, so they are built on first
    access, when the report is printed or serialized."""

    conclusive = True                 # tables are compared in every degree

    def __init__(self, ideal: MonomialIdeal, lex: MonomialIdeal, condition_i: bool,
                 condition_ii_on_window: bool, first_mismatch: tuple[int, int] | None,
                 gin: MonomialIdeal | None, seq_cm: str | None,
                 condition_iii: bool | None, verdict: str) -> None:
        self.ideal = ideal
        self.lex = lex
        self.condition_i = condition_i
        self.condition_ii_on_window = condition_ii_on_window  # exact: in every degree
        self.first_mismatch = first_mismatch
        self.gin = gin
        self.seq_cm = seq_cm
        self.condition_iii = condition_iii
        self.verdict = verdict

    @cached_property
    def _exchange(self) -> ExchangeReport:
        """The explicit exchange sides, which must agree with the row-0
        decision of `condition_i`."""
        exchange = exchange_property(self.ideal)
        if exchange.holds != self.condition_i:
            raise InternalInconsistency(
                f"the exchange sides of {self.ideal} give condition (i) = {exchange.holds}, "
                f"row 0 of the tables gives {self.condition_i}")
        return exchange

    @property
    def sat_then_lex(self) -> MonomialIdeal:
        return self._exchange.left

    @property
    def lex_then_sat(self) -> MonomialIdeal:
        return self._exchange.right

    @cached_property
    def window(self) -> DegreeWindow:
        return default_window(self.ideal, self.lex)

    @cached_property
    def table_ideal(self) -> LCTable:
        return local_cohomology_table(self.ideal, self.window)

    @cached_property
    def table_lex(self) -> LCTable:
        return local_cohomology_table(self.lex, self.window)

    def to_json(self) -> dict:
        return {
            "ideal": ideal_to_json(self.ideal),
            "lex": ideal_to_json(self.lex),
            "saturations": {"left": ideal_to_json(self.sat_then_lex),
                            "right": ideal_to_json(self.lex_then_sat)},
            "condition_i": self.condition_i,
            "lc_window": [self.window.lo, self.window.hi],
            "tables": {"ideal": self.table_ideal.to_json(),
                       "lex": self.table_lex.to_json()},
            "condition_ii_on_window": self.condition_ii_on_window,
            "first_mismatch": list(self.first_mismatch) if self.first_mismatch else None,
            "conclusive": self.conclusive,
            "gin": ideal_to_json(self.gin) if self.gin else None,
            "seq_cm": self.seq_cm,
            "condition_iii": self.condition_iii,
            "verdict": self.verdict,
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"ideal:            {self.ideal}",
            f"lex ideal:        {self.lex}",
            f"(sat)^lex:        {self.sat_then_lex}",
            f"(lex)^sat:        {self.lex_then_sat}",
            f"condition (i):    {self.condition_i}",
            f"window:           [{self.window.lo}, {self.window.hi}]",
            f"condition (ii):   {self.condition_ii_on_window}",
        ]
        if self.first_mismatch:
            lines.append(f"first mismatch:   (i, j) = {self.first_mismatch}")
        if self.gin is not None:
            lines.append(f"gin:              {self.gin}")
            lines.append(f"seq-CM verdict:   {self.seq_cm}")
            lines.append(f"condition (iii):  {self.condition_iii}")
        lines.append(f"verdict:          {self.verdict}")
        return lines


def verify_main(ideal: MonomialIdeal, include_gin: bool = False, trials: int = 3,
                seed: int = 0) -> VerificationReport:
    """Decide the exchange condition (i) and the cohomology condition (ii)
    exactly, from one comparison of the table rows of R/I and R/I^lex; a
    disagreement is flagged as a violation (which would indicate a bug, not
    new mathematics).

    Row 0 decides (i).  H^0_m(R/I) = I^sat/I, so h^0(R/I)_j is
    HF(R/I, j) - HF(R/I^sat, j), and I and I^lex share their Hilbert
    function: row 0 of the two tables agrees exactly when I^sat and
    (I^lex)^sat have the same Hilbert function.  (I^sat)^lex has the
    Hilbert function of I^sat, and (I^lex)^sat is lex, since saturating a
    lex ideal gives a lex ideal.  Two lex ideals are equal exactly when
    their Hilbert functions are, so row 0 agrees exactly when
    (I^sat)^lex = (I^lex)^sat.  `tables_agree` returns the lowest row that
    differs, so (i) holds when no row differs or the first one that does is
    above row 0.  The exchange sides are built only when the report is
    shown, and then they must give the same (i).

    With gin asked for, gin runs first, so a bad `trials` is rejected before
    any other work.  The report builds its tables only when they are shown,
    on a window that holds the first mismatch when there is one."""
    if ideal.is_unit:
        raise ValueError("verification needs a proper ideal")
    gin_ideal = None
    if include_gin:
        from .groebner import gin
        gin_ideal = gin(ideal, trials=trials, seed=seed)
    lex = lex_ideal(ideal)
    mismatch = tables_agree(ideal, lex)
    condition_ii = mismatch is None
    condition_i = condition_ii or mismatch[0] > 0
    verdict = VERDICT_VIOLATION if condition_i != condition_ii else VERDICT_CONSISTENT
    seq_cm = None
    condition_iii = None
    if include_gin:
        seq_verdict = sequentially_cm_verdict(ideal, gin_ideal=gin_ideal)
        seq_cm = seq_verdict.value
        condition_iii = (seq_verdict is SequentialCMVerdict.CONSISTENT
                         and gin_ideal == lex)
    return VerificationReport(
        ideal=ideal, lex=lex, condition_i=condition_i,
        condition_ii_on_window=condition_ii, first_mismatch=mismatch,
        gin=gin_ideal, seq_cm=seq_cm, condition_iii=condition_iii,
        verdict=verdict)


class RigidityMemberReport:
    def __init__(self, ideal: MonomialIdeal, equal_rows: tuple[bool, ...],
                 candidate: bool) -> None:
        self.ideal = ideal
        self.equal_rows = equal_rows      # per cohomological index 0..n
        self.candidate = candidate

    def to_json(self) -> dict:
        return {"ideal": ideal_to_json(self.ideal),
                "equal_rows": list(self.equal_rows),
                "candidate": self.candidate}


class RigidityReport:
    def __init__(self, members: list[RigidityMemberReport]) -> None:
        self.members = members

    @property
    def candidates(self) -> list[RigidityMemberReport]:
        return [m for m in self.members if m.candidate]

    def to_json(self) -> dict:
        return {"members": [m.to_json() for m in self.members],
                "candidates": [m.to_json() for m in self.candidates],
                "none_found": not self.candidates}


def _rigidity_member(ideal: MonomialIdeal) -> RigidityMemberReport:
    flags = equal_rows(ideal, lex_ideal(ideal))
    candidate = any(flags[i] and not all(flags[i:]) for i in range(len(flags)))
    return RigidityMemberReport(ideal, flags, candidate)


def probe_rigidity(spec: FamilySpec) -> RigidityReport:
    """Search a family for equality of one row of local cohomology with the
    lex ideal's without equality at a larger index.  Reports candidates
    only; never a claim."""
    results = [_rigidity_member(m) for m in enumerate_strongly_stable(spec)]
    results.sort(key=lambda r: r.ideal.gens)
    return RigidityReport(results)
