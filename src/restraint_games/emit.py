"""Every result table and document the package writes.

Sweep rows go out as CSV or JSON, oracle certificates as CSV or JSON, and
simulation summaries as CSV; :func:`write_json` writes any other result.
This module imports only the standard library and :mod:`.game`, so a
process pays for the writers without loading the modules that compute.

Every table is written one way, without ``csv``: a ``%s`` layout, built
once per table or per game, filled with each record's cell texts. A sweep
row's layout is spelled out once, as :data:`CSV_HEADER`: the spec's two
columns, the params' six, filled as one block, then the row's own fields,
read by their column names. In CSV an absent value is an empty cell, a
boolean is ``true`` or ``false`` as in JSON, a number is ``str(number)``,
and a text is quoted as ``csv.writer`` quotes it. JSON rows and
certificates are written one at a time in the layout of ``json.dump(...,
indent=2)``, so no list of every row's or certificate's dict is held:
``indent`` would force the pure-Python encoder.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter
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
#: The column of m: before it the spec's two and the params' six, from it
#: on a sweep row's own fields, read by their column names.
_M = CSV_HEADER.index("m")
row_fields = attrgetter(*CSV_HEADER[_M:])

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
#: ``json.dumps(value, indent=2)``, its encoder built once
_json_indented = json.JSONEncoder(indent=2).encode
#: A certificate's type names, restrained first, and its t2 action words by
#: restraint bit.
_TYPE_NAMES = ("restrained", "aggressive")
_ACTION_WORDS = (Outcome.EXPLOIT.value, Outcome.RESTRAINT.value)


def _csv_text(value) -> str:
    """A cell of a row of several as ``csv.writer(lineterminator="\\n")``
    writes it, a boolean as JSON spells it: a text holding ',', '"' or a
    line feed is quoted, its '"' doubled; a lone '\\r' or '' is not."""
    if type(value) is bool:
        return _JSON_LITERALS[value]
    text = "" if value is None else str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_text(value) -> str:
    """A value as ``json`` encodes it, whose float text is the float's repr."""
    if value is None or type(value) is bool:
        return _JSON_LITERALS[value]
    if type(value) is float and math.isfinite(value):
        return repr(value)
    # a list or dict spreads over lines at a row value's depth; no certificate value is one
    return _json_indented(value).replace("\n", "\n    ")


def write_json(data, out: IO[str]) -> None:
    """Two-space indented JSON plus a final newline."""
    json.dump(data, out, indent=2)
    out.write("\n")


def _write_rows(rows: list[RegionRow], spec: MechanismSpec, out: IO[str], cells: str,
                text: Callable[[object], str], between: str = "") -> None:
    """Write each row, ``between`` two, as ``cells`` (one ``%s`` per column)
    cut for the table: the spec's texts filled in, the params' columns one
    block text made once per run of rows that share their params. Each
    classification's text is made once, and looked up once per run."""
    pieces = cells.split("%s")  # pieces[i] comes before column i
    head = pieces[0] + text(spec.mechanism.value) + pieces[1] + text(spec.variant.value) + pieces[2]
    layout, block = "%s".join([head.replace("%", "%%"), *pieces[_M:]]), "%s".join(["", *pieces[3:_M], ""])
    params, last, names, sep = None, None, {}, ""
    for row in rows:
        if row.params is not params:
            params = row.params
            params_text = block % tuple(map(text, params))
        m, classification, *rest = row_fields(row)
        if classification is not last:
            last = classification
            name = names.get(last) or names.setdefault(last, text(last.value))
        out.write(sep + layout % (params_text, text(m), name, *map(text, rest)))
        sep = between


def write_rows_csv(rows: list[RegionRow], spec: MechanismSpec, out: IO[str]) -> None:
    """UTF-8, LF line ends, '.' decimals, fixed header; each row's texts fill one layout."""
    out.write(",".join(CSV_HEADER) + "\n")
    _write_rows(rows, spec, out, ",".join(["%s"] * len(CSV_HEADER)) + "\n", _memo_floats(_csv_text))


def write_rows_json(rows: list[RegionRow], spec: MechanismSpec, out: IO[str]) -> None:
    """:func:`write_json` of the rows' flat dicts, written row by row in the same layout."""
    # the layout of one row in the list, "[" and "\n]" cut off
    cells = json.dumps([dict.fromkeys(CSV_HEADER, "%s")], indent=2)[1:-2].replace('"%s"', "%s")
    out.write("[")
    _write_rows(rows, spec, out, cells, _memo_floats(_json_text), between=",")
    out.write("\n]\n" if rows else "]\n")


def _write_certificates(certs: Iterable[PBECertificate], out: IO[str], layout_of: Callable[[tuple], str],
                        text: Callable[[object], str], fights: tuple, actions: tuple, between: str = "") -> bool:
    """Write each certificate, ``between`` two, as its game's ``%s`` layout
    filled with the texts of its class, both signals, fight bits, t2 bits
    and posteriors; True if any was written. A game's certificates share
    its messages, so ``layout_of(messages)`` and the message and class texts
    are built once per game. ``text`` writes a class name or a number;
    ``fights`` and ``actions`` are a bit's texts."""
    messages, sep = None, ""
    for cert in certs:
        if cert.messages is not messages:
            messages = cert.messages
            layout, m_texts = layout_of(messages), list(map(text, messages))
            classes = {c: text(c.value) for c in type(cert.pbe_class)}
        values = (classes[cert.pbe_class], m_texts[cert.j_R], m_texts[cert.j_A], *map(fights.__getitem__, cert.fight),
                  *map(actions.__getitem__, cert.restraint), *map(text, cert.posterior))
        out.write(sep + layout % values)
        sep = between
    return messages is not None


def _csv_layout(messages: tuple) -> str:
    cells = ([f"{m}:%s" for m in messages], [f"{t}@{m}:%s" for t in _TYPE_NAMES for m in messages],
             [f"{m}:%s" for m in messages])
    return "%s,%s,%s," + ",".join(map(";".join, cells)) + "\n"


def _json_layout(messages: tuple) -> str:
    layout = {
        "class": "%s",
        "profile": {
            "signal_of": dict.fromkeys(_TYPE_NAMES, "%s"),
            "fight_after": [[m, "%s"] for m in messages],
            "t2_action": [[t, m, "%s"] for t in _TYPE_NAMES for m in messages],
        },
        "beliefs": {"posterior": [[m, "%s"] for m in messages]},
    }
    # one certificate at its depth in the document, "[\n  [" and "\n  ]\n]" cut off
    return json.dumps([[layout]], indent=2)[5:-6].replace('"%s"', "%s")


def write_certificates_csv(certs: Iterable[PBECertificate], out: IO[str]) -> None:
    """One row per certificate, its game's layout filled in: each strategy
    map is a ';'-joined cell and a number is ``str(number)``. No field
    holds ',', '"' or a line end, so none needs ``csv``'s quotes."""
    out.write(",".join(CERTIFICATE_CSV_HEADER) + "\n")
    _write_certificates(certs, out, _csv_layout, str, ("yield", "fight"), _ACTION_WORDS)


def write_certificates_json(head: dict, certs: Iterable[PBECertificate], out: IO[str]) -> None:
    """:func:`write_json` of the nonempty ``head`` plus a last key
    ``"certificates"``, the certificates' ``to_dict()``: each its game's
    layout filled in with texts as ``json`` encodes them."""
    out.write(json.dumps(head, indent=2)[:-2] + ',\n  "certificates": [')
    actions = tuple(map(json.dumps, _ACTION_WORDS))
    wrote = _write_certificates(certs, out, _json_layout, _json_text, ("false", "true"), actions, between=",")
    out.write("\n  ]\n}\n" if wrote else "]\n}\n")


def write_simulation_csv(result: SimResult, out: IO[str]) -> None:
    """Header plus one row of :func:`_csv_text` cells. Prior-weighted results
    add State B's mean payoff by initial type, empty where no trial had it."""
    header = ["conflict", "exploit", "restraint", "mean_u_A", "mean_u_B", "standard_error_u_B"]
    values = [result.outcome_counts.get(outcome, 0) for outcome in Outcome]
    values += [result.mean_u_A, result.mean_u_B, result.standard_error_u_B]
    by_type = result.mean_u_B_by_initial_type
    if by_type is not None:
        header += ["mean_u_B_initial_restrained", "mean_u_B_initial_aggressive"]
        values += [by_type["restrained"], by_type["aggressive"]]
    out.write(",".join(header) + "\n" + ",".join(map(_csv_text, values)) + "\n")
