"""Layered benchmark for the restraint_games package.

``run.py`` (next to this package) is the entry point. It runs one workload
as a closed loop with a single client: every round is a fresh Python
process (``worker.py``) that imports the package from ``src/``, generates
its inputs from the seed, runs the workload's ops one after another, checks
every output and reports timings. See ``benchmarks/README.md``.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("oracle-ties", "sweep-grid", "simulate-drift", "cli-mix")
SIZES = ("full", "tiny")


#: Seeds the fixed shapes of the workloads' inputs; see ``draw_scale``.
TEMPLATE_SEED = 2602
#: Inputs whose payoffs scale with the seeded factor; probabilities do not.
PAYOFF_SYMBOLS = ("c", "V_D", "V_B", "r", "m")


def draw_scale(rng) -> float:
    """A payoff scale factor, log-uniform in [1/2, 2].

    Every payoff is linear in (c, V_D, V_B, r, m), so scaling them all by one
    factor keeps every comparison the package makes, and so its work, while
    changing every number it sees. Workloads draw their input shapes once
    from ``TEMPLATE_SEED`` and scale them by a factor drawn from the seed:
    seed-to-seed spread is then measurement noise, not input size.
    """
    return math.exp(rng.uniform(math.log(0.5), math.log(2.0)))


def package_present() -> bool:
    return (SRC / "restraint_games" / "__init__.py").is_file()


def use_checkout_package() -> None:
    """Import restraint_games from this checkout's ``src/``, never from an
    installed copy."""
    sys.path.insert(0, str(SRC))


def subprocess_env() -> dict:
    """Environment for child interpreters: the checkout's ``src/`` first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.pop("RESTRAINT_GAMES_LOG", None)
    return env


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_workload(name: str):
    """The module implementing workload ``name``."""
    from . import cli_mix, oracle_ties, simulate_drift, sweep_grid

    return {
        "oracle-ties": oracle_ties,
        "sweep-grid": sweep_grid,
        "simulate-drift": simulate_drift,
        "cli-mix": cli_mix,
    }[name]
