"""Benchmark entry point: one workload, closed loop, one client.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each round is a fresh ``worker.py`` process that sets up, runs every op of
the workload in order and hashes the outputs; this parent waits for it, so
at most one process computes at a time. Every round has the same inputs, so
the first round's outputs are checked in full and every later round must
reproduce them byte for byte. ``--trace 0`` repeats rounds until
``S`` seconds have passed (at least three rounds) and reports the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced round and
reports the per-layer metrics. The last line of stdout is the JSON result;
a record with provenance, digests and spans goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from rgbench import BENCH_DIR, OUT_DIR, ROOT, SIZES, SRC, WORKLOADS, package_present
from rgbench.hostspeed import slowdown
from rgbench.metrics import END_TO_END, PER_LAYER, layer_metrics, op_tail

MIN_ROUNDS = {"full": 3, "tiny": 1}
ROUND_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def run_round(workload: str, seed: int, size: str, traced: bool, check: bool) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--traced", str(int(traced)), "--check", str(int(check)),
        "--spawned-at", repr(time.monotonic()),
    ]
    # own session, so a timeout also stops the worker's CLI subprocesses
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"round took longer than {ROUND_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{stderr[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if not Path(result["package_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported restraint_games from {result['package_file']}, not {SRC}")
    return result


def compare_digests(rounds: list[dict]) -> None:
    """Same seed, same inputs: every round must reproduce the checked first
    round's bytes, op by op."""
    first = rounds[0]
    for r in rounds[1:]:
        for op in r["ops"]:
            if op in r["failures"]:
                continue
            if r["digests"].get(op) != first["digests"].get(op):
                r["failures"][op] = "output differs from the checked first round"
            elif op in first["failures"]:
                r["failures"][op] = "reproduces the first round's failed output"


def e2e_metrics(rounds: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics; times at the reference host speed (``hostspeed``)."""
    slow = [slowdown(r["reference"], r["reference_s"]) for r in rounds]
    latencies = [t / k for r, k in zip(rounds, slow) for t in r["latencies_s"]]
    attempted = len(latencies)
    failed = sum(len(r["failures"]) for r in rounds)
    tail, pct, beyond = op_tail(latencies)
    values = {
        "setup_s": statistics.median(r["setup_s"] / k for r, k in zip(rounds, slow)),
        "wall_s": statistics.median(r["wall_s"] / k for r, k in zip(rounds, slow)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "passed_frac": (attempted - failed) / attempted,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
    }
    raw = "raw, as measured: {:.4g} s"
    notes = {
        "setup_s": f"median of {len(rounds)} fresh processes; "
        + raw.format(statistics.median(r["setup_s"] for r in rounds)),
        "wall_s": f"median of {len(rounds)} rounds; "
        + raw.format(statistics.median(r["wall_s"] for r in rounds)),
        "peak_rss_mb": "median over rounds of ru_maxrss (process or its largest child)",
        "passed_frac": f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} ops failed)",
        "op_p50_ms": f"median of {attempted} ops",
        "op_tail_ms": f"p{pct:.1f}, {beyond} ops beyond it, of {attempted} ops",
    }
    return values, notes


def baseline_rows(spans: list[dict]) -> list[tuple[str, float, str]]:
    """The ROADMAP baseline rows this traced round covers."""
    by_id = {s["id"]: s for s in spans}

    def op_of(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["label"] or ""

    def durations(name, op_filter=lambda label: True, tag=...):
        return [
            s["end"] - s["start"] for s in spans
            if s["name"] == name and op_filter(op_of(s)) and (tag is ... or s["tag"] == tag)
        ]

    def per_call(name):
        calls = sum(s["calls"] for s in spans if s["name"] == name)
        return 1e6 * sum(durations(name)) / calls if calls else None

    rows = [
        ("payoff() per call", per_call("game.payoff"), "us"),
        ("classify() per point", per_call("conditions.classify"), "us"),
    ]
    for mech in ("sunk", "installment", "tying-hands"):
        d = durations("oracle.find_all_pbe", lambda l, mech=mech: l.startswith(mech) and l.endswith("-n6"))
        if d:
            rows.append((f"find_all_pbe, {mech}, n = 6 (mean of {len(d)})", statistics.mean(d), "s"))
    for name, what in (("sweep.run_sweep", "run_sweep 200x200, 5 % oracle-checked"),
                       ("sweep.write_csv", "write_rows_csv, 40 000 rows")):
        d = durations(name, lambda l: l == "tying-hands-base")
        if d:
            rows.append((what, d[0], "s"))
    d = durations("montecarlo.simulate", lambda l: l.startswith("simulate-"))
    if d:
        rows.append((f"simulate, 10^7 trials (mean of {len(d)} modes)", statistics.mean(d), "s"))
    log = durations("montecarlo.simulate", lambda l: l == "trial-log", tag="log")
    if log:
        rows.append(("simulate with trial dump, 10^5 trials", log[0], "s"))
    d = durations("cli.process", lambda l: l.startswith("classify") and l != "classify-vb-below-c")
    if len(d) >= 2:
        rows.append((f"classify process wall time (median of {len(d)})", statistics.median(d), "s"))
    return [r for r in rows if r[1] is not None]


def provenance(workload: str, seed: int, size: str, rounds: list[dict]) -> dict:
    info = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "source_sha256": _tree_digest(SRC),
        "python": platform.python_version(),
        "versions": rounds[0]["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "parameters": rounds[0]["parameters"],
    }
    info.update(_git_state())
    return info


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _git_state() -> dict:
    """Commit and dirty flag, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip() or None, "git_dirty": bool(dirty.stdout.strip())}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full", help="tiny is for the smoke test")
    args = ap.parse_args(argv)
    if not package_present():
        print(f"error: no restraint_games package under {SRC}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            rounds = [run_round(args.workload, args.seed, args.size, traced=False, check=True),
                      run_round(args.workload, args.seed, args.size, traced=True, check=False)]
        else:
            rounds, t0 = [], time.monotonic()
            while len(rounds) < MIN_ROUNDS[args.size] or time.monotonic() - t0 < args.seconds:
                rounds.append(run_round(args.workload, args.seed, args.size,
                                        traced=False, check=not rounds))
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    compare_digests(rounds)

    attempted = sum(len(r["latencies_s"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    if args.trace:
        traced = rounds[1]
        # overhead at the reference speed, so host drift between the rounds cancels
        overhead = (traced["wall_s"] / slowdown(traced["reference"], traced["reference_s"])
                    - rounds[0]["wall_s"] / slowdown(rounds[0]["reference"], rounds[0]["reference_s"]))
        values = layer_metrics(traced["spans"], overhead)
        units, notes = dict(PER_LAYER), {}
    else:
        values, notes = e2e_metrics(rounds)
        units = dict(END_TO_END)

    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    prov = provenance(args.workload, args.seed, args.size, rounds)
    record = {
        "provenance": prov,
        "metrics": metrics,
        "rounds": [{k: v for k, v in r.items() if k not in ("parameters", "spans")} for r in rounds],
        "digests": rounds[0]["digests"],
        "spans": rounds[1]["spans"] if args.trace else None,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("provenance: " + json.dumps({k: v for k, v in prov.items() if k != "parameters"}))
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), {attempted} ops, {failed} failed; "
          "host slowdown per round " + ", ".join(f"{slowdown(r['reference'], r['reference_s']):.3f}" for r in rounds))
    for r_i, r in enumerate(rounds):
        for op, reason in sorted(r["failures"].items()):
            print(f"  FAILED round {r_i + 1} {op}: {reason}")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>16.6g} {units[name]}{note}")
    if args.trace:
        print(f"  probed idle layers: {', '.join(rounds[1]['probed']) or 'none'}")
        print("ROADMAP baseline rows covered by this workload:")
        for what, value, unit in baseline_rows(rounds[1]["spans"]):
            print(f"  {what:<50} {value:>12.4g} {unit}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
