"""One round of one workload, in a fresh Python process.

    python3 benchmarks/worker.py --workload NAME --seed N --size full|tiny \
        --traced 0|1 --check 0|1 --spawned-at T

``T`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` covers
interpreter start, imports and input generation. Runs every op of the
workload in order, timing each and timing the host-speed reference task
between them, then hashes the outputs and, with
``--check 1``, checks them; a traced round also records spans and runs the
attribution calls. Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--check", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    from rgbench import load_workload, sha256, use_checkout_package
    from rgbench.hostspeed import reference
    from rgbench.spans import NoTrace, Tracer

    use_checkout_package()
    import numpy
    import restraint_games

    workload = load_workload(args.workload)
    inputs = workload.generate(args.seed, args.size)
    setup_s = time.monotonic() - args.spawned_at

    ops = workload.ops(inputs)
    tr = Tracer() if args.traced else NoTrace()
    outputs, failures, latencies = {}, {}, []
    kind = getattr(workload, "REFERENCE", "loop")
    reference_s = [reference(kind)]
    for op in ops:
        t0 = time.perf_counter()
        try:
            with tr.span("op", label=op.id):
                outputs[op.id] = op.run(tr)
        except Exception as exc:  # a failed op is counted, not fatal
            failures[op.id] = f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        reference_s.append(reference(kind))

    digests = {}
    for op in ops:
        if op.id in failures:
            continue
        try:
            reason = op.check(outputs[op.id]) if args.check else None
            digests[op.id] = sha256(op.digest(outputs[op.id]))
        except Exception as exc:  # a check that cannot read the output fails the op
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures[op.id] = reason

    result = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "reference": kind,
        "reference_s": reference_s,
        "ops": [op.id for op in ops],
        "latencies_s": latencies,
        "failures": failures,
        "digests": digests,
        "parameters": workload.describe(inputs),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "restraint_games": restraint_games.__version__,
        },
        "package_file": restraint_games.__file__,
    }
    if args.traced:
        from rgbench import tracing

        pts = workload.points(inputs)
        tracing.game_microbench(tr, pts)
        workload.trace_extras(tr, inputs, outputs)
        result["probed"] = tracing.probe_idle_layers(tr, pts)
        result["spans"] = tr.dump()
    cleanup = getattr(workload, "cleanup", None)
    if cleanup:
        cleanup(inputs)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(own, children) / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
