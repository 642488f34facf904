"""Serialization of diagrams, decompositions, functionals and reports.

Two diagram formats are supported, both exact (rationals travel as strings
like ``"5"`` or ``"-1/6"``, never as floats):

* ``json`` -- an object ``{"n": 3, "entries": [[i, j, "value"], ...]}`` with
  entries sorted by (i, j) on emission; optional ``metadata`` passes through
  parsing untouched.  The schema ships in ``schemas/diagram.schema.json``.

* ``table`` -- the human-readable Betti table.  Each line is
  ``label: v0 v1 ... vn`` where the label is the degree offset ``j - i``,
  columns are the homological indices, and ``-`` marks a zero.  Lines
  starting with ``#`` are comments; ``# n=<int>`` records the ambient size
  (emitted only for positionless diagrams, accepted anywhere).  The grammar
  is documented in ``docs/formats.md``.

Emission is canonical, so equal inputs produce identical bytes and
parse(emit(x)) == x.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
from enum import Enum
from fractions import Fraction

from .core import (
    BettiDiagram,
    LaurentPolynomial,
    _canonical,
    _is_int,
    _parse_int,
    _rational_parts,
    as_rational,
    parse_rational,  # re-exported
)
from .decompose import Decomposition
from .errors import DuplicateEntry, ParseError
from .functionals import Functional
from .hilbert import HilbertSeries
from .poset import Chain, Tableau, Window


def format_rational(value: Fraction) -> str:
    return str(as_rational(value))


def _parse_json_diagram(text: str) -> BettiDiagram:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise ParseError("diagram document must be an object with 'n' and 'entries'")
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise ParseError(f"'n' must be a nonnegative integer, got {n!r}")
    if not isinstance(doc["entries"], list):
        raise ParseError(f"'entries' must be a list, got {doc['entries']!r}")
    seen = set()
    values = []
    for item in doc["entries"]:
        if not (isinstance(item, list) and len(item) == 3):
            raise ParseError(f"entry {item!r} must be [i, j, value]")
        i, j, raw = item
        # json.loads reads an integer literal as an int, true and false as bools
        if not (type(i) is int and type(j) is int):
            raise ParseError(f"entry indices must be integers, got {item!r}")
        if not 0 <= i <= n:
            raise ParseError(f"entry {item!r} has column {i} outside [0, {n}]")
        if not isinstance(raw, str):
            raise ParseError(f"entry value must be a rational string, got {raw!r}")
        try:
            p, q = _rational_parts(raw)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        pos = (i, j)
        if pos in seen:
            raise DuplicateEntry(f"entry ({i}, {j}) occurs twice")
        seen.add(pos)
        if p:
            values.append((pos, p, q))
    # every key and value checked above: build without a second pass
    return _canonical(n, values)


def _parse_table_diagram(text: str) -> BettiDiagram:
    declared_n = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"#\s*n\s*=\s*(\S+)\s*$", line)
            if m:
                try:
                    declared_n = _parse_int(m.group(1))
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
            continue
        if ":" not in line:
            raise ParseError("expected 'label: values'", lineno, 1)
        label_part, _, rest = line.partition(":")
        try:
            label = _parse_int(label_part.strip())
        except ValueError:
            raise ParseError(f"bad row label {label_part.strip()!r}", lineno, 1) from None
        tokens = rest.split()
        if not tokens:
            raise ParseError("row has no columns", lineno, len(label_part) + 2)
        rows.append((lineno, label, tokens, raw))
    if not rows:
        if declared_n is None:
            raise ParseError("empty table without a '# n=' line")
        # the public constructor refuses a declared n below 0
        return BettiDiagram(declared_n, {})
    width = len(rows[0][2])
    n = width - 1
    if declared_n is not None and declared_n != n:
        raise ParseError(f"declared n={declared_n} but table has {width} columns")
    labels = [label for _, label, _, _ in rows]
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate row label")
    if labels != list(range(labels[0], labels[0] + len(labels))):
        raise ParseError("row labels must be consecutive integers")
    values = []
    for lineno, label, tokens, raw in rows:
        if len(tokens) != width:
            raise ParseError(f"expected {width} columns, found {len(tokens)}", lineno, 1)
        for i, token in enumerate(tokens):
            if token == "-":
                continue
            try:
                p, q = _rational_parts(token)
            except ValueError as exc:
                column = raw.index(token) + 1
                raise ParseError(str(exc), lineno, column) from exc
            if p:
                values.append(((i, label + i), p, q))
    # positions off the grid of consecutive labels, values read exactly
    return _canonical(n, values)


def parse_diagram(text: str, format: str = "json") -> BettiDiagram:
    """Parse a diagram from ``json`` or ``table`` text."""
    if format == "json":
        return _parse_json_diagram(text)
    if format == "table":
        return _parse_table_diagram(text)
    raise ValueError(f"unknown format {format!r}")


# the one JSON encoder of every report and diagram: the text
# json.dumps(..., sort_keys=True) writes, without building an encoder per call
_JSON = json.JSONEncoder(sort_keys=True)


def _emit_table_diagram(b: BettiDiagram) -> str:
    if b.is_zero:
        return f"# n={b.n}\n"
    values = dict(b.items())
    offsets = [j - i for i, j in values]
    lo, hi = min(offsets), max(offsets)
    cells = []
    for label in range(lo, hi + 1):
        row = [format_rational(values[(i, label + i)]) if (i, label + i) in values else "-" for i in range(b.n + 1)]
        cells.append((label, row))
    label_width = max(len(str(label)) for label, _ in cells)
    col_widths = [
        max(len(row[i]) for _, row in cells) for i in range(b.n + 1)
    ]
    lines = []
    for label, row in cells:
        padded = " ".join(val.rjust(col_widths[i]) for i, val in enumerate(row))
        lines.append(f"{str(label).rjust(label_width)}: {padded}")
    return "\n".join(lines) + "\n"


def emit_diagram(b: BettiDiagram, format: str = "json") -> str:
    """Canonical text for a diagram; ``parse_diagram`` round-trips it."""
    if format == "json":
        return _JSON.encode(encode(b))
    if format == "table":
        return _emit_table_diagram(b)
    raise ValueError(f"unknown format {format!r}")


def emit_decomposition(dec: Decomposition) -> str:
    """JSON list of [coefficient, degree sequence] pairs, chain order.

    >>> from bettidecomp import BettiDiagram, greedy_decompose
    >>> emit_decomposition(greedy_decompose(BettiDiagram(1, {(0, 0): 2})))
    '[["2", [0]]]'
    """
    # a rational's text and a list of ints' repr are their JSON texts already
    return "[" + ", ".join([f'["{c}", {d!r}]' for c, d in _decomposition_payload(dec)]) + "]"


def _decomposition_payload(dec: Decomposition) -> list:
    """[[coefficient, degrees], ...] in chain order, as JSON data."""
    return [[format_rational(c), list(p.degrees)] for c, p in dec.terms]


def encode(obj):
    """Recursively convert package values into JSON-serializable data.

    Rationals become strings, functionals expose their display grid,
    chains become lists of degree sequences, dataclasses become dicts.
    """
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        raise TypeError("refusing to serialize a float")
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, BettiDiagram):
        return {"n": obj.n, "entries": [[i, j, format_rational(v)] for (i, j), v in obj.items()]}
    if isinstance(obj, Functional):
        return {
            "case": obj.case.value,
            "grid": obj.grid(),
            "window": encode(obj.window),
            "anchor": [None if p is None else list(p.degrees) for p in obj.anchor],
        }
    if isinstance(obj, Chain):
        return [list(p.degrees) for p in obj.elements]
    if isinstance(obj, Tableau):
        return [list(r) for r in obj.rows]
    if isinstance(obj, Window):
        return {"n": obj.n, "M": obj.M, "N": obj.N, "s_min": obj.s_min}
    if isinstance(obj, HilbertSeries):
        return {
            "numerator": [[d, format_rational(v)] for d, v in obj.numerator.items()],
            "denominator_power": obj.n,
        }
    if isinstance(obj, LaurentPolynomial):
        return [[d, format_rational(v)] for d, v in obj.items()]
    if isinstance(obj, Decomposition):
        return _decomposition_payload(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {name: encode(getattr(obj, name)) for name in _field_names(type(obj))}
    if isinstance(obj, dict):
        return {str(k): encode(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [encode(x) for x in obj]
    raise TypeError(f"cannot encode {type(obj).__name__}")


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    """A dataclass's field names, read once per exact class."""
    return tuple(f.name for f in dataclasses.fields(cls))


def emit_report(obj) -> str:
    """Deterministic JSON for any report-like structure."""
    return _JSON.encode(encode(obj))
