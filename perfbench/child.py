"""One benchmark pass in a fresh process.

    python3 perfbench/child.py <src dir> <workload> <seed> <trace 0|1> [<spans file>]

Set-up is ``import lexlab`` plus building the workload's inputs.  Then one
closed-loop caller runs every operation in order, each starting when the
previous one returns; lexlab's module-level caches are shared by the
operations of the pass, as in a user's sweep, and start empty because the
process is new.  The host-speed reference (calibration.py) runs between
the timed stretches.  Answers are checked after the timed region.  The pass
prints one JSON object as its last line.  With ``<src dir>`` alone it only
imports lexlab, which compiles the bytecode before the timed passes.
"""

import sys
import traceback
from time import perf_counter

from calibration import reference_s

# The reference (calibration.py) runs before and after set-up and then after
# each stretch of this much operation time; the operations between two
# reference runs form a segment, timed at the host speed the two report.
REFERENCE_EVERY_S = 0.25


def main(argv: list[str]) -> int:
    src = argv[0]
    sys.path.insert(0, src)
    reference_s()  # the first runs are slower: caches and allocator warm up
    reference_s()
    reference = [reference_s()]
    t0 = perf_counter()
    import lexlab
    if not lexlab.__file__.startswith(src):
        raise SystemExit(f"lexlab imported from {lexlab.__file__}, not from {src}")
    if len(argv) == 1:
        return 0
    workload, seed, traced = argv[1], int(argv[2]), argv[3] == "1"

    from workloads import WORKLOADS
    build, op, check = WORKLOADS[workload]
    tracer = None
    if traced:
        from tracing import OP_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
        inputs = tracer.span("bench.setup", build, lexlab, seed)
    else:
        inputs = build(lexlab, seed)
    setup_s = perf_counter() - t0
    reference.append(reference_s())

    answers = [None] * len(inputs)
    op_s = [0.0] * len(inputs)
    op_segment = [0] * len(inputs)
    failures = []
    since_reference = 0.0
    for k, ideal in enumerate(inputs):
        a = perf_counter()
        try:
            if tracer:
                tracer.op = k
                answers[k] = tracer.span(OP_SPAN, op, lexlab, ideal, seed)
            else:
                answers[k] = op(lexlab, ideal, seed)
        except Exception as exc:  # an operation that raises counts as failed
            failures.append({"input": str(ideal), "error": f"{type(exc).__name__}: {exc}",
                             "traceback": traceback.format_exc()})
        op_s[k] = perf_counter() - a
        op_segment[k] = len(reference) - 1
        since_reference += op_s[k]
        if since_reference >= REFERENCE_EVERY_S or k == len(inputs) - 1:
            reference.append(reference_s())
            since_reference = 0.0

    import json
    import resource
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    from checks import self_test
    check_start = perf_counter()
    problems = []
    for ideal, answer in zip(inputs, answers):
        if answer is not None:
            problems += check(lexlab, ideal, answer)
    problems += self_test(lexlab)
    check_s = perf_counter() - check_start

    result = {"setup_s": setup_s, "op_s": op_s, "reference_s": reference,
              "op_segment": op_segment,
              "failures": failures, "problems": problems, "peak_rss_kb": peak_rss_kb,
              "check_s": check_s}
    if tracer:
        result["layers"], result["layer_self_in_ops_s"] = tracer.summary()
        result["counters"] = tracer.counters
        result["spans"] = len(tracer.spans)
        if len(argv) > 4:
            names = sorted({s[0] for s in tracer.spans})
            index = {name: t for t, name in enumerate(names)}
            with open(argv[4], "w") as fh:
                json.dump({"fields": ["name", "parent", "op", "start_s", "end_s"],
                           "names": names,
                           "spans": [(index[s[0]], s[1], s[2], round(s[3] - t0, 7),
                                      round(s[4] - t0, 7)) for s in tracer.spans]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
