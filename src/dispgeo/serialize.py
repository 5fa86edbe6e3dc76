"""Text formats: exact rationals, matrix documents, certificates.

Matrices parse from JSON arrays of rows; entries may be integers,
decimals, or exact rationals written "p/q".  This module owns every
printed form of a value: flags print true/false, rationals exactly, reals
with 12 significant digits, and a record (certificates and the CLI's
answers, each a NamedTuple) one ``name = value`` line per field, so
identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import ParseError
from .words import Word

__all__ = [
    "render_rational",
    "parse_rational",
    "render_real",
    "render_flag",
    "parse_matrix_text",
    "parse_int_matrix_text",
    "load_matrix_file",
    "certificate_document",
    "write_atomic",
]


def render_rational(x) -> str:
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}") from exc


def render_real(x: float) -> str:
    return format(float(x), ".12g")


def render_flag(x) -> str:
    """true or false, by the truth of x."""
    return "true" if x else "false"


def _entry_value(entry, row_index: int):
    if isinstance(entry, bool):
        raise ParseError(f"row {row_index}: boolean entry")
    if isinstance(entry, float) and not math.isfinite(entry):
        raise ParseError(f"row {row_index}: non-finite entry {entry}")
    if isinstance(entry, (int, float)):
        return entry
    if isinstance(entry, str):
        return parse_rational(entry)
    raise ParseError(f"row {row_index}: unsupported entry {entry!r}")


def parse_matrix_text(text: str) -> list[list]:
    """One matrix from a JSON array of rows; entries int, float or 'p/q'."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _matrix_from_data(data)


def _matrix_from_data(data) -> list[list]:
    if not isinstance(data, list) or not data:
        raise ParseError("matrix document must be a nonempty array of rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != len(data):
            raise ParseError(f"row {i}: matrix must be square")
        rows.append([_entry_value(x, i) for x in row])
    return rows


def _int_rows(rows: list[list]) -> tuple[tuple[int, ...], ...]:
    """Parsed rows as exact integers; any other entry is a ParseError."""
    out = []
    for i, row in enumerate(rows):
        clean = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise ParseError(f"row {i}: entry {x} is not an integer")
            clean.append(int(f))
        out.append(tuple(clean))
    return tuple(out)


def _real_rows(rows: list[list]) -> list:
    """Parsed rows as exact integers if every entry is one, else floats;
    an entry beyond float range is a ParseError."""
    out = []
    for i, row in enumerate(rows):
        try:
            out.append([float(x) for x in row])
        except OverflowError as exc:
            raise ParseError(f"row {i}: entry beyond float range") from exc
    if all(Fraction(x).denominator == 1 for row in rows for x in row):
        return _int_rows(rows)
    return out


def parse_int_matrix_text(text: str) -> tuple[tuple[int, ...], ...]:
    """Like parse_matrix_text but entries must be exact integers."""
    return _int_rows(parse_matrix_text(text))


def load_matrix_file(path: str, integer: bool = False) -> list:
    """A file holding one matrix or an array of matrices (JSON).

    Returns a list of matrices either way.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}, column "
                             f"{exc.colno}: {exc.msg}") from exc
    if (not isinstance(data, list) or not data
            or not isinstance(data[0], list) or not data[0]):
        raise ParseError(f"{path}: expected a matrix or array of matrices")
    batch = data if isinstance(data[0][0], list) else [data]
    convert = _int_rows if integer else _real_rows
    return [convert(_matrix_from_data(m)) for m in batch]


def _render_value(v) -> str:
    """A certificate field: a Fraction, float, flag, int, Word or tuple of
    them."""
    if isinstance(v, bool):
        return render_flag(v)
    if isinstance(v, Fraction):
        return render_rational(v)
    if isinstance(v, float):
        return render_real(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Word):
        return v.to_str() if len(v) else "<identity>"
    if isinstance(v, tuple):
        return "[" + ", ".join(_render_value(x) for x in v) + "]"
    raise TypeError(f"no certificate rendering for {type(v).__name__}")


def _is_record(v) -> bool:
    """A record is a NamedTuple: a tuple with ``_fields``."""
    return isinstance(v, tuple) and hasattr(v, "_fields")


def _value_text(v) -> str:
    """The lines a value prints as: a record one ``name = value`` line per
    field, in ``_fields`` order; any other value one line."""
    if _is_record(v):
        return "".join(f"{name} = {_render_value(x)}\n"
                       for name, x in zip(v._fields, v))
    return _render_value(v) + "\n"


def certificate_document(cert) -> str:
    """Flat ``key = value`` document for any certificate record: a
    ``type = `` line naming it, then its fields as ``_value_text`` prints
    them, so output is deterministic.
    """
    if not _is_record(cert):
        raise TypeError(f"expected a record, got {type(cert)}")
    return f"type = {type(cert).__name__}\n" + _value_text(cert)


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus rename.

    The file gets the mode a plain ``open(path, "w")`` leaves: an existing
    file keeps its mode, a new one gets 0o666 less the umask (mkstemp
    alone would leave it owner-only); a symlink is written through.
    """
    import os
    import stat
    import tempfile

    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
