"""Every result table and document the package writes.

Sweep rows go out as CSV or JSON, oracle certificates as CSV or JSON, and
simulation summaries as CSV; :func:`write_json` writes any other result.
This module imports only the standard library and :mod:`.game`, so a
process pays for the writers without loading the modules that compute.

A sweep row's layout is spelled out once, as :data:`CSV_HEADER` and
:meth:`~.sweep.RegionRow.cells`; each writer maps every cell through its
text rule. In CSV an absent value is an empty cell, a boolean is ``true``
or ``false`` as in JSON, and a number is ``str(number)``. JSON rows and
certificates are written one at a time in the layout of
``json.dump(..., indent=2)``, each key and value encoded as ``json``
encodes it, so no list of every row's or certificate's dict is held. Each
fills a ``%s`` layout, built once per table or per game, with its texts:
``indent`` would force the pure-Python encoder. The row writers format
each distinct float once per table, since fixed values repeat on every
row and an axis value on many.
"""

from __future__ import annotations

import csv
import json
import math
from typing import IO, TYPE_CHECKING, Callable, Iterable

from .game import ALL_SYMBOLS, MechanismSpec, Outcome

if TYPE_CHECKING:
    from .montecarlo import SimResult
    from .oracle import PBECertificate
    from .sweep import RegionRow

CSV_HEADER = [
    "mechanism",
    "variant",
    *ALL_SYMBOLS,
    "classification",
    "pooling_slack",
    "separating_slack_1",
    "separating_slack_2",
    "typeshift_slack",
    "oracle_checked",
]

CERTIFICATE_CSV_HEADER = [
    "class",
    "signal_restrained",
    "signal_aggressive",
    "fight_after",
    "t2_actions",
    "posteriors",
]

#: Most float texts a table writer remembers at once; it forgets them all
#: when full, so a grid of unique slacks costs a bounded memo, not one entry
#: per row, while repeated values are formatted about once per refill.
_MEMO_SIZE = 4096


def _memo_floats(fmt: Callable[[object], str]) -> Callable[[object], str]:
    """``fmt``, remembering its text of each distinct float for one table:
    fixed values repeat on every row and an axis value on many. Zeros are
    not remembered, since 0.0 == -0.0 but the two print differently, nor is
    any value that is not a float, since True == 1.0."""
    texts: dict[float, str] = {}

    def text(value) -> str:
        if type(value) is not float or not value:
            return fmt(value)
        t = texts.get(value)
        if t is None:
            if len(texts) >= _MEMO_SIZE:
                texts.clear()
            t = texts[value] = fmt(value)
        return t

    return text


_JSON_LITERALS = {None: "null", True: "true", False: "false"}
#: A t2 action's JSON text by its restraint bit.
_ACTION_TEXTS = (json.dumps(Outcome.EXPLOIT.value), json.dumps(Outcome.RESTRAINT.value))


def _csv_text(value) -> str:
    """A cell as ``csv`` writes it, but a boolean as JSON spells it."""
    if type(value) is bool:
        return _JSON_LITERALS[value]
    return "" if value is None else str(value)


def _json_text(value) -> str:
    """A value as ``json`` encodes it, whose float text is the float's repr."""
    if value is None or type(value) is bool:
        return _JSON_LITERALS[value]
    if type(value) is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value)


def write_json(data, out: IO[str]) -> None:
    """Two-space indented JSON plus a final newline."""
    json.dump(data, out, indent=2)
    out.write("\n")


def write_rows_csv(rows: list[RegionRow], spec: MechanismSpec, out: IO[str]) -> None:
    """UTF-8, LF line endings, '.' decimal separator, fixed header."""
    text = _memo_floats(_csv_text)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(map(text, row.cells(spec)) for row in rows)


def write_rows_json(rows: list[RegionRow], spec: MechanismSpec, out: IO[str]) -> None:
    """:func:`write_json` of the rows' flat dicts, written row by row in
    the same layout: ``indent`` would force the pure-Python encoder."""
    text = _memo_floats(_json_text)
    # the layout of one row in the list, "[" and "\n]" cut off
    row_format = json.dumps([dict.fromkeys(CSV_HEADER, "%s")], indent=2)[1:-2].replace('"%s"', "%s")
    out.write("[")
    sep = ""
    for row in rows:
        out.write(sep + row_format % tuple(map(text, row.cells(spec))))
        sep = ","
    out.write("\n]\n" if rows else "]\n")


def write_certificates_csv(certs: Iterable[PBECertificate], out: IO[str]) -> None:
    """One row per certificate; each strategy map is a ';'-joined cell,
    formatted from the certificate's record."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CERTIFICATE_CSV_HEADER)
    messages = None
    for cert in certs:
        if cert.messages is not messages:
            # a game's certificates share its messages, so each message's
            # text is formatted once per game rather than once per row
            messages = cert.messages
            fights = [(f"{m}:yield", f"{m}:fight") for m in messages]
            actions = [
                (f"{t}@{m}:exploit", f"{t}@{m}:restraint")
                for t in ("restrained", "aggressive")
                for m in messages
            ]
            belief_at = [f"{m}:" for m in messages]
        writer.writerow(
            [
                cert.pbe_class.value,
                messages[cert.j_R],
                messages[cert.j_A],
                ";".join([texts[f] for texts, f in zip(fights, cert.fight)]),
                ";".join([texts[r] for texts, r in zip(actions, cert.restraint)]),
                ";".join([f"{prefix}{q}" for prefix, q in zip(belief_at, cert.posterior)]),
            ]
        )


def write_certificates_json(head: dict, certs: Iterable[PBECertificate], out: IO[str]) -> None:
    """:func:`write_json` of the nonempty ``head`` plus a last key
    ``"certificates"``, the certificates' ``to_dict()``. A game's
    certificates share its messages, so its certificate layout, messages
    written in, is built once per game; each certificate fills it in."""
    out.write(json.dumps(head, indent=2)[:-2] + ',\n  "certificates": [')
    sep = ""
    messages = None
    for cert in certs:
        if cert.messages is not messages:
            messages = cert.messages
            m_texts = [_json_text(m) for m in messages]
            layout = {
                "class": "%s",
                "profile": {
                    "signal_of": {"restrained": "%s", "aggressive": "%s"},
                    "fight_after": [[m, "%s"] for m in messages],
                    "t2_action": [[t, m, "%s"] for t in ("restrained", "aggressive") for m in messages],
                },
                "beliefs": {"posterior": [[m, "%s"] for m in messages]},
            }
            # one certificate at its depth in the document, "[\n  [" and "\n  ]\n]" cut off
            cert_format = json.dumps([[layout]], indent=2)[5:-6].replace('"%s"', "%s")
        values = (
            f'"{cert.pbe_class.value}"',  # a class name needs no escape
            m_texts[cert.j_R],
            m_texts[cert.j_A],
            *map(_JSON_LITERALS.__getitem__, cert.fight),
            *map(_ACTION_TEXTS.__getitem__, cert.restraint),
            *map(_json_text, cert.posterior),
        )
        out.write(sep + cert_format % values)
        sep = ","
    out.write("\n  ]\n}\n" if sep else "]\n}\n")


def write_simulation_csv(result: SimResult, out: IO[str]) -> None:
    """Header plus one summary row. Prior-weighted results add State B's
    mean payoff by initial type, empty where no trial had that type."""
    header = ["conflict", "exploit", "restraint", "mean_u_A", "mean_u_B", "standard_error_u_B"]
    values = [result.outcome_counts.get(outcome, 0) for outcome in Outcome]
    values += [result.mean_u_A, result.mean_u_B, result.standard_error_u_B]
    by_type = result.mean_u_B_by_initial_type
    if by_type is not None:
        header += ["mean_u_B_initial_restrained", "mean_u_B_initial_aggressive"]
        values += [by_type["restrained"], by_type["aggressive"]]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(values)
