"""Ops, and spans around calls into the package's layers.

A span records (name, start, end, parent) plus optional counts, in memory;
the worker writes them out when the round ends. Untraced rounds use
:class:`NoTrace`, whose spans are empty context managers, so the timed path
pays one ``with`` per layer call and nothing else. Counts are recorded only
when a span is live (``with ... as s`` binds ``None`` otherwise).
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Op:
    """One unit of client work: ``run(tracer)`` calls into the package and
    returns the output; ``check(output)`` gives a failure reason or None;
    ``digest(output)`` gives the bytes whose sha256 is recorded."""

    id: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]
    digest: Callable[[Any], bytes]


#: Nominal pure-profile count of an n-message game: signal pairs x fight
#: rules x t2 assignments. The benchmark's own formula, so it does not
#: depend on the oracle's internals.
def nominal_profiles(n: int) -> int:
    return n * n * 2**n * 4**n


class NoTrace:
    def span(self, name, tag=None, calls=1, label=None):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name, tag=None, calls=1, label=None):
        """``tag`` marks spans a derived metric selects; ``label`` names the
        op an ``op`` span stands for."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "tag": tag,
            "label": label,
            "calls": calls,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def has(self, name: str) -> bool:
        return any(s["name"] == name for s in self.spans)

    def dump(self) -> list[dict]:
        """Spans with times relative to the tracer's creation."""
        return [
            {**s, "start": s["start"] - self.t0, "end": s["end"] - self.t0}
            for s in self.spans
        ]


# --- counts recorded at a span's boundary ---------------------------------


def count_certificates(span: dict, n_messages: int, certs) -> None:
    span["counts"]["profiles_nominal"] = nominal_profiles(n_messages)
    span["counts"]["certificates"] = len(certs)
    span["counts"].update(Counter(c.pbe_class.value for c in certs))


def count_rows(span: dict, rows) -> None:
    span["counts"]["rows"] = len(rows)
    span["counts"]["rows_invalid"] = sum(
        1 for r in rows if r.classification.value == "Invalid"
    )
    span["counts"]["rows_oracle_checked"] = sum(1 for r in rows if r.oracle_checked)
