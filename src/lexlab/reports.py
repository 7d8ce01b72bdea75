"""Verification reports for the lex/saturation equivalence and the rigidity probe."""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .cohomology import (DegreeWindow, LCTable, default_window, equal_rows,
                         local_cohomology_table, tables_agree)
from .errors import InternalInconsistency
from .families import FamilySpec, enumerate_strongly_stable
from .gotzmann import ExchangeReport, exchange_property, lex_ideal
from .groebner import gin
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


class SequentialCMVerdict(Enum):
    CONSISTENT = "ConsistentWithSequentiallyCM"
    NOT_SEQUENTIALLY_CM = "NotSequentiallyCM"


def sequentially_cm_verdict(ideal: MonomialIdeal,
                            gin_ideal: MonomialIdeal | None = None) -> SequentialCMVerdict:
    """Local cohomology of R/I against R/gin(I), compared exactly; only the
    gin of an ideal that is not strongly stable is probabilistic.  A mismatch
    refutes sequential Cohen-Macaulayness.
    """
    if ideal.is_unit:
        raise ValueError("verdict needs a proper ideal")
    if gin_ideal is None:
        gin_ideal = gin(ideal)
    if tables_agree(ideal, gin_ideal) is None:
        return SequentialCMVerdict.CONSISTENT
    return SequentialCMVerdict.NOT_SEQUENTIALLY_CM


class VerificationReport:
    """The evidence is `first_mismatch`, the lowest row (i, j) in which the
    tables of R/I and R/I^lex differ, or None, and with gin asked for, `gin`
    and its sequentially-CM verdict `seq_cm`.  The conditions and the
    verdict are read from it here, and nowhere else.  `window`,
    `table_ideal`, `table_lex` and the exchange sides `sat_then_lex` and
    `lex_then_sat` only display the check, so they are built on first
    access, when the report is printed or serialized."""

    conclusive = True                 # tables are compared in every degree

    def __init__(self, ideal: MonomialIdeal, lex: MonomialIdeal,
                 first_mismatch: tuple[int, int] | None, gin: MonomialIdeal | None = None,
                 seq_cm: str | None = None) -> None:
        self.ideal = ideal
        self.lex = lex
        self.first_mismatch = first_mismatch
        self.gin = gin
        self.seq_cm = seq_cm
        self.condition_ii_on_window = first_mismatch is None  # exact: in every degree
        # Row 0 decides (i).  H^0_m(R/I) = I^sat/I, so h^0(R/I)_j is
        # HF(R/I, j) - HF(R/I^sat, j), and I and I^lex share their Hilbert
        # function: row 0 of the two tables agrees exactly when I^sat and
        # (I^lex)^sat have the same Hilbert function.  (I^sat)^lex has the
        # Hilbert function of I^sat, and (I^lex)^sat is lex, since
        # saturating a lex ideal gives a lex ideal.  Two lex ideals are equal
        # exactly when their Hilbert functions are, so row 0 agrees exactly
        # when (I^sat)^lex = (I^lex)^sat: (i) holds when no row differs or
        # the lowest that does is above row 0.  The exchange sides are built
        # only when the report is shown, and then they must give the same (i).
        self.condition_i = self.condition_ii_on_window or first_mismatch[0] > 0
        self.verdict = (VERDICT_CONSISTENT if self.condition_i == self.condition_ii_on_window
                        else VERDICT_VIOLATION)
        self.condition_iii = None if gin is None else (
            seq_cm == SequentialCMVerdict.CONSISTENT.value and gin == lex)

    @cached_property
    def _exchange(self) -> ExchangeReport:
        """The explicit exchange sides, which must agree with the row-0
        decision of `condition_i`.  That decision walks I^lex; the sides
        come from `exchange_property`'s memo keyed by J = I^sat, which
        walks J^lex once per saturation, so unless I is saturated the two
        share no lex walk."""
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

    With gin asked for, gin runs first, so a bad `trials` is rejected before
    any other work.  The report builds its tables only when they are shown,
    on a window that holds the first mismatch when there is one."""
    if ideal.is_unit:
        raise ValueError("verification needs a proper ideal")
    gin_ideal = seq_cm = None
    if include_gin:
        gin_ideal = gin(ideal, trials=trials, seed=seed)
    lex = lex_ideal(ideal)
    mismatch = tables_agree(ideal, lex)
    if include_gin:
        seq_cm = sequentially_cm_verdict(ideal, gin_ideal=gin_ideal).value
    return VerificationReport(ideal, lex, mismatch, gin_ideal, seq_cm)


class RigidityMemberReport:
    def __init__(self, ideal: MonomialIdeal, equal_rows: tuple[bool, ...]) -> None:
        self.ideal = ideal
        self.equal_rows = equal_rows      # per cohomological index 0..n
        # a row equal to the lex ideal's below one that is not
        self.candidate = any(equal_rows[i] and not all(equal_rows[i:])
                             for i in range(len(equal_rows)))

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
    return RigidityMemberReport(ideal, equal_rows(ideal, lex_ideal(ideal)))


def probe_rigidity(spec: FamilySpec) -> RigidityReport:
    """Search a family for equality of one row of local cohomology with the
    lex ideal's without equality at a larger index.  Reports candidates
    only; never a claim."""
    results = [_rigidity_member(m) for m in enumerate_strongly_stable(spec)]
    results.sort(key=lambda r: r.ideal.gens)
    return RigidityReport(results)
