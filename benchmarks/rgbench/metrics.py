"""Metric names, units and the arithmetic that turns samples and spans into
metrics. Pure Python: the parent process imports this without numpy or the
package under test."""

from __future__ import annotations

import statistics

#: End-to-end metrics, reported by every untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("passed_frac", "ratio"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)

CERT_CLASSES = ("PoolingOnRestraint", "PoolingOther", "Separating", "Hybrid")

#: Per-layer metrics, reported by every traced run: (name, unit).
PER_LAYER = (
    ("game.validate.ns_per_call", "ns"),
    ("game.payoff.ns_per_call", "ns"),
    ("conditions.classify.calls", "count"),
    ("conditions.classify.busy_s", "s"),
    ("oracle.find_all_pbe.calls", "count"),
    ("oracle.find_all_pbe.busy_s", "s"),
    ("oracle.profiles_nominal", "count"),
    ("oracle.certificates", "count"),
    *((f"oracle.certificates.{cls}", "count") for cls in CERT_CLASSES),
    ("oracle.cert_yield", "ratio"),
    ("oracle.verify.calls", "count"),
    ("oracle.verify.busy_s", "s"),
    ("oracle.verify.discrepancies", "count"),
    ("sweep.run_sweep.busy_s", "s"),
    ("sweep.run_sweep.self_s", "s"),
    ("sweep.rows", "count"),
    ("sweep.rows_invalid", "count"),
    ("sweep.rows_oracle_checked", "count"),
    ("sweep.write_csv.busy_s", "s"),
    ("sweep.write_csv.bytes", "bytes"),
    ("sweep.write_json.busy_s", "s"),
    ("sweep.write_json.bytes", "bytes"),
    ("montecarlo.simulate.calls", "count"),
    ("montecarlo.simulate.busy_s", "s"),
    ("montecarlo.trials", "count"),
    ("montecarlo.trial_log.busy_s", "s"),
    ("montecarlo.trial_log.bytes", "bytes"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.busy_s", "s"),
    ("cli.process_s", "s"),
    *((f"cli.exit.{code}", "count") for code in range(4)),
    ("trace.overhead_s", "s"),
)

#: Tail samples required beyond the reported tail percentile.
TAIL_BEYOND = 10


def op_tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than
    ``2 * TAIL_BEYOND + 1`` samples it falls back to the upper median, so
    the figure never lies below the middle of the distribution.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, (n - 1) // 2)
    idx = n - 1 - beyond
    return ordered[idx], 100.0 * (idx + 1) / n, beyond


def _durations(spans: list[dict], name: str, tag=...) -> list[float]:
    return [
        s["end"] - s["start"]
        for s in spans
        if s["name"] == name and (tag is ... or s["tag"] == tag)
    ]


def _busy(spans: list[dict], name: str, tag=...) -> float:
    return sum(_durations(spans, name, tag))


def _calls(spans: list[dict], name: str) -> int:
    return sum(s["calls"] for s in spans if s["name"] == name)


def _count(spans: list[dict], name: str, key: str) -> float:
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)


def _ns_per_call(spans: list[dict], name: str) -> float:
    calls = _calls(spans, name)
    return 1e9 * _busy(spans, name) / calls if calls else 0.0


def layer_metrics(spans: list[dict], overhead_s: float) -> dict[str, float]:
    """Every per-layer metric from one traced round's spans.

    Spans tagged ``sweep`` re-measure, over the same points, the classify and
    verify work that ``run_sweep`` does inside itself; ``sweep.run_sweep.self_s``
    subtracts them (a derived figure, not a span of its own). The
    ``log``/``log-baseline`` pair of simulate spans runs one configuration with
    and without the per-trial writer; their difference is the writer's cost.
    """
    nominal = _count(spans, "oracle.find_all_pbe", "profiles_nominal")
    certs = _count(spans, "oracle.find_all_pbe", "certificates")
    interpreter = statistics.median(_durations(spans, "cli.interpreter"))
    m = {
        "game.validate.ns_per_call": _ns_per_call(spans, "game.validate"),
        "game.payoff.ns_per_call": _ns_per_call(spans, "game.payoff"),
        "conditions.classify.calls": _calls(spans, "conditions.classify"),
        "conditions.classify.busy_s": _busy(spans, "conditions.classify"),
        "oracle.find_all_pbe.calls": _calls(spans, "oracle.find_all_pbe"),
        "oracle.find_all_pbe.busy_s": _busy(spans, "oracle.find_all_pbe"),
        "oracle.profiles_nominal": nominal,
        "oracle.certificates": certs,
        **{
            f"oracle.certificates.{cls}": _count(spans, "oracle.find_all_pbe", cls)
            for cls in CERT_CLASSES
        },
        "oracle.cert_yield": certs / nominal if nominal else 0.0,
        "oracle.verify.calls": _calls(spans, "oracle.verify"),
        "oracle.verify.busy_s": _busy(spans, "oracle.verify"),
        "oracle.verify.discrepancies": _count(spans, "oracle.verify", "discrepancies"),
        "sweep.run_sweep.busy_s": _busy(spans, "sweep.run_sweep"),
        "sweep.run_sweep.self_s": _busy(spans, "sweep.run_sweep")
        - _busy(spans, "conditions.classify", "sweep")
        - _busy(spans, "oracle.verify", "sweep"),
        "sweep.rows": _count(spans, "sweep.run_sweep", "rows"),
        "sweep.rows_invalid": _count(spans, "sweep.run_sweep", "rows_invalid"),
        "sweep.rows_oracle_checked": _count(spans, "sweep.run_sweep", "rows_oracle_checked"),
        "sweep.write_csv.busy_s": _busy(spans, "sweep.write_csv"),
        "sweep.write_csv.bytes": _count(spans, "sweep.write_csv", "bytes"),
        "sweep.write_json.busy_s": _busy(spans, "sweep.write_json"),
        "sweep.write_json.bytes": _count(spans, "sweep.write_json", "bytes"),
        "montecarlo.simulate.calls": _calls(spans, "montecarlo.simulate"),
        "montecarlo.simulate.busy_s": _busy(spans, "montecarlo.simulate"),
        "montecarlo.trials": _count(spans, "montecarlo.simulate", "trials"),
        "montecarlo.trial_log.busy_s": _busy(spans, "montecarlo.simulate", "log")
        - _busy(spans, "montecarlo.simulate", "log-baseline"),
        "montecarlo.trial_log.bytes": _count(spans, "montecarlo.simulate", "log_bytes"),
        "cli.interpreter_s": interpreter,
        "cli.import_s": statistics.median(_durations(spans, "cli.import")) - interpreter,
        "cli.main.busy_s": _busy(spans, "cli.main"),
        "cli.process_s": _busy(spans, "cli.process"),
        **{
            f"cli.exit.{code}": _count(spans, "cli.process", f"exit_{code}")
            for code in range(4)
        },
        "trace.overhead_s": overhead_s,
    }
    assert list(m) == [name for name, _ in PER_LAYER]
    return m
