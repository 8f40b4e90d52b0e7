"""Command-line front end.

Four subcommands map onto the library: ``classify`` (closed-form verdicts
at one point), ``oracle`` (exhaustive weak-PBE enumeration on a signal
grid), ``sweep`` (region tables over a parameter grid), and ``simulate``
(type-drift Monte Carlo). Runs can be described by a JSON config file, by
flags, or both, with flags winning; ``--dump-config`` writes the resolved
run back out as JSON that reproduces it exactly. A config's keys are held
to :func:`~.game.refuse_unknown_keys` and :func:`~.game.unique`.

A process imports only what its subcommand runs. Every one loads
:mod:`.game` and the writers in :mod:`.emit`; ``classify`` adds
:mod:`.conditions`, and :mod:`.sweep` for its CSV row; ``oracle`` adds
:mod:`.oracle` alone; ``sweep`` adds :mod:`.sweep`, and the oracle and
numpy only when it draws an oracle sample; ``simulate`` adds
:mod:`.montecarlo`, the oracle's strategy profile and numpy.

Exit codes: 0 success, 1 validation error, 2 oracle discrepancy, 3 size
guard, and 141 (128 + SIGPIPE, as a shell reports a filter that SIGPIPE
killed) when the reader closes the output pipe early. Every other failure
prints one machine-parsable line to stderr (``error: <category>:
<reason>``); result data goes only to the output target (stdout by
default), logs to stderr. ``RESTRAINT_GAMES_LOG=info``
logs a summary of each run and ``debug`` also a failed cross-check's
discrepancy report; ``logging`` is imported only then. Nothing in the
package logs above info, so any other setting prints no log line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import nullcontext
from functools import partial
from typing import Optional

from .emit import (
    write_certificates_csv,
    write_certificates_json,
    write_json,
    write_rows_csv,
    write_rows_json,
    write_simulation_csv,
)
from .game import (
    BudgetExceededError,
    DiscrepancyError,
    DriftMode,
    Mechanism,
    MechanismSpec,
    ModelParams,
    ParameterError,
    Variant,
    boolean,
    integer,
    real,
    refuse_unknown_keys,
    unique,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DISCREPANCY = 2
EXIT_SIZE_GUARD = 3
EXIT_CLOSED_PIPE = 141


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for oracle
    # discrepancies, so usage problems are validation errors here
    def error(self, message):
        raise ParameterError("usage", message)


def _one_of(*choices: str):
    def one_of(value):
        if value not in choices:
            raise ValueError(value)
        return value

    one_of.__name__ = "one of " + ", ".join(choices)
    one_of.choices = choices
    return one_of


def _numbers(value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(value)
    return tuple(real(v) for v in value)


def _comma_separated(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")


def _object(value) -> dict:
    if not isinstance(value, dict):  # dict() would take a list of pairs
        raise TypeError(value)
    return value


# argparse and _resolve name a type by its __name__ in error messages
_object.__name__ = "a JSON object"
_numbers.__name__ = "a list of numbers"
_comma_separated.__name__ = "comma-separated numbers"

_REQUIRED = object()

# Run fields are (config key, flag dest, type, default). Every field with a
# dest is also a flag. A dotted key nests one level; a callable default is
# computed from the fields resolved before it. A point's defaults are its
# value types' own; its flags are the field names in lower case without "_".
_POINT = (
    ("mechanism.mechanism", "mechanism", _one_of(*(m.value for m in Mechanism)), _REQUIRED),
    ("mechanism.variant", "variant", _one_of(*(v.value for v in Variant)),
     MechanismSpec._field_defaults["variant"].value),
    *(
        (f"params.{name}", name.lower().replace("_", ""), real, ModelParams._field_defaults.get(name, _REQUIRED))
        for name in ModelParams._fields
    ),
)
_SIGNAL = ("m", "m", real, _REQUIRED)


def _io(default_format: str) -> tuple:
    return (("output", "output", str, "-"), ("format", "format", _one_of("csv", "json"), default_format))


def _point(run: dict) -> tuple[MechanismSpec, ModelParams]:
    return MechanismSpec.from_dict(run["mechanism"]), ModelParams.from_dict(run["params"])


def _classify(run: dict):
    from .conditions import classify

    spec, params = _point(run)
    m = run["m"]
    report = classify(spec, params, m)

    def as_csv(out):
        from .sweep import region_row_for_point  # only the CSV row needs the sweep

        write_rows_csv([region_row_for_point(spec, params, m)], spec, out)

    summary = ("classify: pooling=%s separating=%s", report.pooling_on_restraint.holds, report.separating.holds)
    return partial(write_json, report.to_dict()), as_csv, summary


def _oracle(run: dict):
    from .oracle import DiscreteGame, find_all_pbe

    certs = find_all_pbe(DiscreteGame(*_point(run), run["messages"]))
    counts = dict(Counter(cert.pbe_class.value for cert in certs))
    head = {key: run[key] for key in ("mechanism", "params", "messages")}
    head["counts"] = counts
    return (
        partial(write_certificates_json, head, certs),
        partial(write_certificates_csv, certs),
        ("oracle: %d certificate(s) %s", len(certs), counts),
    )


def _sweep(run: dict):
    from .sweep import GridSpec, run_sweep

    grid = GridSpec.from_dict(run["grid"])
    rows = run_sweep(grid, oracle_fraction=run["oracle_fraction"], seed=run["seed"])
    return (
        partial(write_rows_json, rows, grid.mechanism),
        partial(write_rows_csv, rows, grid.mechanism),
        ("sweep: %d row(s), %d oracle-checked", len(rows), sum(row.oracle_checked for row in rows)),
    )


def _simulate(run: dict):
    from .montecarlo import SimConfig, simulate
    from .oracle import StrategyProfile

    spec, params = _point(run)
    config = SimConfig(
        spec=spec,
        params=params,
        m=run["m"],
        profile=StrategyProfile.from_dict(run["profile"]),
        n_trials=run["n_trials"],
        seed=run["seed"],
        drift_mode=DriftMode(run["drift_mode"]),
        allow_degenerate_prior=run["allow_degenerate_prior"],
    )
    path = run["dump_trials"]
    with open(path, "w", encoding="utf-8", newline="") if path else nullcontext() as trial_log:
        result = simulate(config, trial_log=trial_log)
    return (
        partial(write_json, result.to_dict()),
        partial(write_simulation_csv, result),
        (
            "simulate: %d trial(s), mean_u_B=%.6g (se %.3g)",
            config.n_trials,
            result.mean_u_B,
            result.standard_error_u_B,
        ),
    )


def _pooling_profile(run: dict) -> dict:
    from .montecarlo import pooling_profile

    return pooling_profile(run["m"]).to_dict()


#: Per subcommand: help text, runner (resolved run -> JSON writer, CSV
#: writer and an info log line) and run fields in --dump-config key order.
COMMANDS = {
    "classify": ("closed-form verdicts at one point", _classify, (*_POINT, _SIGNAL, *_io("json"))),
    "oracle": ("exhaustive weak-PBE enumeration", _oracle, (
        *_POINT,
        ("messages", "messages", _numbers, _REQUIRED),
        *_io("json"),
    )),
    "sweep": ("classify a parameter grid", _sweep, (
        ("grid", None, _object, _REQUIRED),
        ("oracle_fraction", "oracle_fraction", real, 0.05),
        ("seed", "seed", integer, 0),
        *_io("csv"),
    )),
    "simulate": ("type-drift Monte Carlo", _simulate, (
        *_POINT,
        _SIGNAL,
        ("profile", None, _object, _pooling_profile),
        ("drift_mode", "drift_mode", _one_of(*(d.value for d in DriftMode)), DriftMode.LITERAL.value),
        ("n_trials", "trials", integer, 100_000),
        ("seed", "seed", integer, 0),
        ("allow_degenerate_prior", "allow_degenerate_prior", boolean, False),
        ("dump_trials", "dump_trials", str, None),
        *_io("json"),
    )),
}

_FLAG_HELP = {
    "vd": "aggressive type's gain V_D",
    "vb": "State B's exploitation loss V_B",
    "p": "type-drift probability",
    "m": "signal level",
    "messages": "comma-separated signal grid, e.g. 0,2",
    "allow_degenerate_prior": "permit prior 0 or 1 (testing aid)",
    "dump_trials": "write one CSV row per trial",
    "output": "result target (default: stdout)",
}


def _flag_kind(kind) -> dict:
    if kind is boolean:
        return {"action": "store_true", "default": None}
    if kind is _numbers:
        return {"type": _comma_separated}
    if kind is str:
        return {"metavar": "PATH"}
    if hasattr(kind, "choices"):
        return {"choices": kind.choices}
    return {"type": kind}


def build_parser() -> _Parser:
    parser = _Parser(prog="restraint-games", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, fields) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON run config")
        p.add_argument("--dump-config", metavar="PATH", help="write the resolved run as JSON and exit")
        for _, dest, kind, _ in fields:
            if dest is not None:
                flags = ["-o"] if dest == "output" else []
                flags.append("--" + dest.replace("_", "-"))
                p.add_argument(*flags, dest=dest, help=_FLAG_HELP.get(dest), **_flag_kind(kind))
    return parser


def _load_config(path: Optional[str], command: str) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=partial(unique, "config"))
        except ParameterError:  # a key given twice, not a decoding error
            raise
        # not UTF-8 or JSON, an integer over int()'s digit limit, or too deep
        except (ValueError, RecursionError) as exc:
            raise ParameterError("config is UTF-8 JSON", str(exc)) from exc
    if not isinstance(data, dict):
        raise ParameterError("config is a JSON object", f"got {type(data).__name__}")
    if "command" in data:
        if data["command"] != command:
            raise ParameterError(
                "config command matches subcommand",
                f"config says {data['command']!r}, invoked {command!r}",
            )
        data = {k: v for k, v in data.items() if k != "command"}
    elif command == "sweep" and "axes" in data:
        # bare GridSpec config
        data = {"grid": data}
    return data


def _layer(cfg: dict, section: str) -> dict:
    if not section:
        return cfg
    layer = cfg.setdefault(section, {})
    if not isinstance(layer, dict):
        raise ParameterError(f"{section} is a JSON object", f"got {layer!r}")
    return layer


def _resolve(args: argparse.Namespace) -> dict:
    """Each run field from its flag, else the config file, else its default,
    coerced to the field's type. Flags are written into the loaded config
    first, so a section lists the file's keys, then flagged keys, then
    defaulted keys."""
    cfg = _load_config(args.config, args.command)
    _, _, fields = COMMANDS[args.command]
    top = {key.partition(".")[0] for key, *_ in fields}
    sections = ((f"in {name}", cfg.get(name), kind._fields)
                for name, kind in (("mechanism", MechanismSpec), ("params", ModelParams)) if name in top)
    refuse_unknown_keys("config keys are run fields", (("at top level", cfg, top), *sections))
    for key, dest, _, _ in fields:
        section, _, name = key.rpartition(".")
        value = getattr(args, dest) if dest else None
        if value is not None:
            _layer(cfg, section)[name] = value
    run: dict = {"command": args.command}
    for key, dest, kind, default in fields:
        section, _, name = key.rpartition(".")
        layer = _layer(cfg, section)
        target = run.setdefault(section, layer) if section else run
        value = layer.get(name)
        if value is None:
            if default is _REQUIRED:
                raise ParameterError(f"--{dest} required" if dest else f"--config with {key!r} required")
            value = default(run) if callable(default) else default
        else:
            try:
                value = kind(value)
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"{key} is {kind.__name__}", f"got {value!r}") from exc
        target[name] = value
    return run


def _open_target(path: str):
    return nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8", newline="")


def _logger():
    """The package logger when ``RESTRAINT_GAMES_LOG`` is info or debug,
    else None without importing ``logging``."""
    level = os.environ.get("RESTRAINT_GAMES_LOG", "").upper()
    if level not in ("INFO", "DEBUG"):
        return None
    import logging

    logging.basicConfig(stream=sys.stderr, level=level, format="%(name)s: %(message)s")
    return logging.getLogger("restraint_games")


def main(argv: Optional[list[str]] = None) -> int:
    log = _logger()
    try:
        args = build_parser().parse_args(argv)
        run = _resolve(args)
        if args.dump_config:
            path, write = args.dump_config, partial(write_json, run)
        else:
            _, runner, _ = COMMANDS[args.command]
            as_json, as_csv, summary = runner(run)
            if log:
                log.info(*summary)
            path, write = run["output"], as_json if run["format"] == "json" else as_csv
        with _open_target(path) as out:
            write(out)
            out.flush()  # so a closed pipe shows here, not in the flush at exit
        return EXIT_OK
    except BrokenPipeError:
        # nothing is wrong with the run; stdout goes to devnull so the flush
        # at exit neither fails nor prints "Exception ignored"
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except (ParameterError, OSError) as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DiscrepancyError as exc:
        if log:
            log.debug("discrepancy report: %s", json.dumps(exc.report.to_json_list()))
        print(f"error: discrepancy: {exc}", file=sys.stderr)
        return EXIT_DISCREPANCY
    except BudgetExceededError as exc:
        print(f"error: size-guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD


if __name__ == "__main__":
    sys.exit(main())
