"""lexlab's benchmark: family workloads timed end to end, and a traced run per layer.

    python3 perfbench/run.py --workload sweep-r3 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; lexlab is imported from ``src/``.  Each
pass runs in a fresh process (``child.py``), because lexlab keeps
module-level caches that a second pass in one process would hit.  Passes
repeat until ``--seconds`` have gone (at least ``MIN_PASSES``), and every
metric is the median over passes.  Times are in reference-host seconds
(calibration.py): the host is shared and its speed drifts by more than any
useful bound.  Load is one closed-loop caller in one thread, so no
operation ever waits in a queue: wait time is zero by construction and is
not reported.

With ``--trace 0`` the metrics are BENCHMARK.json's ``end_to_end`` list;
with ``--trace 1`` untraced and traced passes alternate and the metrics are
its ``per_layer`` list.  Human-readable lines come first; the last line of
standard output is one JSON object.  Full results (machine, seed, every
pass) go to ``perfbench/out/``, and a traced run also writes the spans of
its last traced pass there.  Exit codes: 0 all answers checked correct,
1 a wrong answer, 2 no lexlab source or no BENCHMARK.json, 3 a pass crashed
or timed out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from calibration import REFERENCE_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
PASS_TIMEOUT_S = 120
TAIL_BEYOND = 10   # the tail percentile keeps this many operations above it


class PassFailed(Exception):
    pass


def machine_info() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


def run_child(args: list[str]) -> dict | None:
    """Run child.py with args; its last output line, parsed, if any."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {args} timed out after {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass {args} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values
    above it; every workload has more operations than that."""
    k = len(values) - TAIL_BEYOND - 1
    return sorted(values)[k], 100.0 * (k + 1) / len(values)


def normalized(p: dict) -> tuple[float, list[float]]:
    """A pass's set-up and operation times in reference-host seconds: segment
    i (set-up is segment 0) runs between reference runs i and i + 1, at the
    host speed their mean shows."""
    ref = p["reference_s"]

    def scale(i: int) -> float:
        return 2.0 * REFERENCE_S / (ref[i] + ref[i + 1])

    return (p["setup_s"] * scale(0),
            [t * scale(i) for t, i in zip(p["op_s"], p["op_segment"])])


def host_factor(p: dict) -> float:
    """Reference-host seconds per wall second over a pass's operations."""
    return sum(normalized(p)[1]) / sum(p["op_s"])


def end_to_end(passes: list[dict]) -> dict:
    """Medians over passes of reference-host times.  Every pass runs the
    same operations in the same order, so an operation's time is its median
    across passes, and the operation percentiles are taken over those."""
    norm = [normalized(p) for p in passes]
    op_ms = [1000.0 * statistics.median(times) for times in zip(*(ops for _, ops in norm))]
    return {"setup_s": statistics.median(setup for setup, _ in norm),
            "total_s": statistics.median(sum(ops) for _, ops in norm),
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": tail(op_ms)[0],
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    def med(fn):
        return statistics.median(fn(p) for p in traced)

    out = {}
    for name in traced[0]["layers"]:
        if name.startswith("bench."):
            continue
        out[f"{name}.calls"] = med(lambda p: p["layers"][name]["calls"])
        out[f"{name}.self_s"] = med(lambda p: p["layers"][name]["self_s"] * host_factor(p))
    for name in traced[0]["counters"]:
        out[name] = med(lambda p: p["counters"][name])
    # waste ratios; 0/0 (layer bypassed) is reported as 0
    out["groebner.normal_form.zero_frac"] = med(
        lambda p: p["counters"]["groebner.normal_form.zero"]
        / max(p["layers"]["groebner.normal_form"]["calls"], 1))
    out["ideals.colon_per_saturate"] = med(
        lambda p: p["layers"]["ideals.colon"]["calls"]
        / max(p["layers"]["ideals.saturate"]["calls"], 1))
    out["trace_overhead_frac"] = (
        end_to_end(traced)["total_s"] / end_to_end(untraced)["total_s"] - 1.0)
    out["trace_accounted_frac"] = med(lambda p: p["layer_self_in_ops_s"] / sum(p["op_s"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "lexlab" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: need {SRC / 'lexlab'} and {spec_file}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]

    machine = machine_info()
    machine["loadavg_before"] = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    spans_file = OUT / f"{stem}-spans.json"
    kinds = (False, True) if args.trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    try:
        run_child([])  # compiles lexlab's bytecode outside the timed passes
        deadline = time.monotonic() + args.seconds
        while time.monotonic() < deadline or len(passes[False]) < MIN_PASSES:
            for traced in kinds:
                extra = [str(spans_file)] if traced else []
                passes[traced].append(run_child(
                    [args.workload, str(args.seed), str(int(traced))] + extra))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    machine["loadavg_after"] = os.getloadavg()

    every = passes[False] + passes[True]
    problems = sorted({msg for p in every for msg in p["problems"]})
    attempted = sum(len(p["op_s"]) for p in every)
    failed = sum(len(p["failures"]) for p in every)
    first = passes[False][0]
    ops, fails = len(first["op_s"]), len(first["failures"])
    values = (per_layer(passes[False], passes[True]) if args.trace
              else end_to_end(passes[False]))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    percentile = tail(first["op_s"])[1]

    print(f"workload {args.workload} (seed {args.seed}): {why}")
    print(f"machine: nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} loadavg before={machine['loadavg_before']} "
          f"after={machine['loadavg_after']}")
    factors = [host_factor(p) for p in every]
    print(f"passes: {len(passes[False])} untraced, {len(passes[True])} traced, "
          f"each a fresh process; medians over passes")
    print(f"host factor (wall s -> reference-host s): median {statistics.median(factors):.3f}, "
          f"range {min(factors):.3f}-{max(factors):.3f}")
    print(f"failed_frac: {fails}/{ops} per pass ({failed}/{attempted} in the run)")
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{percentile:.1f} of {ops} operations per pass)"
        print(f"{name:<44} {m['value']:>16.6f} {m['unit']}{note}")
    print("wait time: 0 by construction (one synchronous caller, no queue)")
    for msg in problems:
        print(f"WRONG ANSWER: {msg}", file=sys.stderr)
    for f in first["failures"]:
        print(f"failed operation: {f['input']}: {f['error']}", file=sys.stderr)

    record = {"workload": args.workload, "why": why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine,
              "failed_frac": f"{fails}/{ops}",
              "op_tail": {"percentile": percentile, "samples": ops},
              "metrics": metrics, "problems": problems,
              "host_factors": factors,
              "wait_s": "0 by construction: one synchronous caller, no queue",
              "passes": passes[False], "traced_passes": passes[True]}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
