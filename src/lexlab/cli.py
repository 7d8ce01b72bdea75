"""Command-line front end.

Exit codes: 0 success / consistent, 2 parse error, 3 engine error (unlucky
coordinates, inadmissible data, out of memory, a number too large for the
machine), 4 theorem violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cohomology import DegreeWindow, local_cohomology_table
from .errors import InvalidArgument, LexlabError, ParseError
from .families import FamilySpec, enumerate_strongly_stable
from .gotzmann import lex_ideal, lex_ideal_from_values
from .groebner import gin
from .hilbert import hilbert_series
from .ideals import MonomialIdeal, saturate
from .parsing import parse_ideal, parse_ring, parse_window
from .reports import (VERDICT_VIOLATION, ideal_to_json, probe_rigidity, verify_main)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexlab",
        description="exact lex-ideal, saturation and local-cohomology computations")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", required=True,
                        help="comma-separated variable names, e.g. x,y,z")
    common.add_argument("--format", choices=("table", "json"), default="table")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--window",
                        help="degree window lo:hi (use --window=-8:5 for negative lo)")
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=int, default=3)
    trials.add_argument("--seed", type=int, default=0)
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--target", help="values, e.g. 1,3,3,1,1")
    family.add_argument("--from-ideal", dest="from_ideal", help="take the target from an ideal")
    family.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("hf", parents=[common, window], help="Hilbert function and series data")
    p.add_argument("ideal")

    p = sub.add_parser("lex", parents=[common], help="lex-segment ideal")
    p.add_argument("ideal", nargs="?", default=None)
    p.add_argument("--values", help="raw Hilbert function values, e.g. 1,3,3,1,1")

    p = sub.add_parser("sat", parents=[common], help="saturation")
    p.add_argument("ideal")

    p = sub.add_parser("gin", parents=[common, trials], help="generic initial ideal (revlex)")
    p.add_argument("ideal")
    p.add_argument("--bound", type=int, default=1000)

    p = sub.add_parser("lc", parents=[common, window], help="local cohomology table")
    p.add_argument("ideal")

    p = sub.add_parser("verify-main", parents=[common, trials],
                       help="check the exchange/cohomology equivalence")
    p.add_argument("ideal")
    p.add_argument("--with-gin", action="store_true")

    sub.add_parser("enumerate", parents=[common, family],
                   help="strongly stable ideals with a target Hilbert function")
    sub.add_parser("probe-rigidity", parents=[common, family],
                   help="search a family for one-sided row equalities")

    return parser


def _window(args) -> DegreeWindow | None:
    if not args.window:
        return None
    return DegreeWindow(*parse_window(args.window))


def _monomial_ideal(text: str, ring, what: str = "this command") -> MonomialIdeal:
    parsed = parse_ideal(text, ring)
    if not isinstance(parsed, MonomialIdeal):
        raise ParseError(f"{what} needs a monomial ideal")
    return parsed


def _emit(args, make_payload, make_table) -> None:
    if args.format == "json":
        print(json.dumps(make_payload(), indent=2, sort_keys=True))
    else:
        print(make_table())


def _values(text: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad {option} values {text!r}") from exc


def _family_spec(args, ring) -> FamilySpec:
    if (args.target is None) == (args.from_ideal is None):
        raise ParseError("give exactly one of --target or --from-ideal")
    if args.target is not None:
        target = _values(args.target, "--target")
    else:
        target = _monomial_ideal(args.from_ideal, ring, "--from-ideal")
    return FamilySpec(ring, target, args.max_degree)


def _dispatch(args) -> int:
    ring = parse_ring(args.ring)

    if args.command == "hf":
        ideal = _monomial_ideal(args.ideal, ring)
        w = _window(args)
        if w and w.lo != 0:
            raise ParseError("hf shows degrees from 0: --window must start at 0")
        data = hilbert_series(ideal, w.hi if w else None)
        poly = " + ".join(f"{c}*X^{k}" if k else str(c)
                          for k, c in enumerate(data.polynomial)) or "0"
        _emit(args, data.to_json, lambda: "\n".join([
            f"values 0..{len(data.values) - 1}: {' '.join(map(str, data.values))}",
            f"numerator:  {list(data.numerator)}",
            f"polynomial: {poly}",
            f"d0:         {data.d0}",
        ]))
        return 0

    if args.command == "lc":
        table = local_cohomology_table(_monomial_ideal(args.ideal, ring), _window(args))
        _emit(args, table.to_json, table.table_str)
        return 0

    if args.command == "verify-main":
        report = verify_main(_monomial_ideal(args.ideal, ring), include_gin=args.with_gin,
                             trials=args.trials, seed=args.seed)
        _emit(args, report.to_json, lambda: "\n".join(report.summary_lines()))
        return 4 if report.verdict == VERDICT_VIOLATION else 0

    if args.command == "enumerate":
        members = sorted(enumerate_strongly_stable(_family_spec(args, ring)),
                         key=lambda m: m.gens)
        _emit(args, lambda: {"count": len(members),
                             "members": [ideal_to_json(m) for m in members]},
              lambda: "\n".join(str(m) for m in members) or "(empty family)")
        return 0

    if args.command == "probe-rigidity":
        report = probe_rigidity(_family_spec(args, ring))
        def table() -> str:
            lines = [f"members: {len(report.members)}"]
            for m in report.members:
                flags = "".join("=" if f else "!" for f in m.equal_rows)
                lines.append(f"{'CANDIDATE ' if m.candidate else '          '}{flags}  {m.ideal}")
            lines.append("candidates: " +
                         (", ".join(str(m.ideal) for m in report.candidates) or "none found"))
            return "\n".join(lines)
        _emit(args, report.to_json, table)
        return 0

    # lex, sat and gin each print one ideal
    if args.command == "lex":
        if (args.ideal is None) == (args.values is None):
            raise ParseError("give an ideal or --values, not both")
        if args.values is not None:
            result = lex_ideal_from_values(ring, _values(args.values, "--values"))
        else:
            result = lex_ideal(_monomial_ideal(args.ideal, ring))
    elif args.command == "sat":
        result = saturate(_monomial_ideal(args.ideal, ring))
    else:
        result = gin(parse_ideal(args.ideal, ring), ring=ring, trials=args.trials,
                     seed=args.seed, bound=args.bound)
    _emit(args, lambda: ideal_to_json(result), lambda: str(result))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, InvalidArgument) as exc:
        print(f"lexlab: parse error: {exc}", file=sys.stderr)
        return 2
    except (LexlabError, ValueError) as exc:
        print(f"lexlab: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("lexlab: out of memory", file=sys.stderr)
        return 3
    except OverflowError:
        print("lexlab: a number is too large for this machine", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
