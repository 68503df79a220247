"""Text format for quaternion matrices.

Grammar: any number of comment lines starting with '#', a header line
"QMAT <rows> <cols>", then one line per row holding cols entries, each
entry four space-separated finite decimal reals (w x y z); NaN,
infinities, literals that overflow a double, and any non-ASCII character
or underscore in the header or a row are rejected. Blank lines are
ignored. Emission uses 17 significant digits, so parse(emit(A)) is
bit-exact.
"""

from __future__ import annotations

import math

import numpy as np

from .qlinalg import QMatrix


class QMatFormatError(ValueError):
    """Base for parse failures; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedHeader(QMatFormatError):
    pass


class WrongEntryCount(QMatFormatError):
    pass


class BadNumber(QMatFormatError):
    pass


def _content_lines(text: str):
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield idx, stripped


def parse_qmat(text) -> QMatrix:
    """Parse the text form of a quaternion matrix, a str or UTF-8 bytes."""
    if isinstance(text, bytes):
        text = _decode(text)
    lines = _content_lines(text)
    try:
        header_line, header = next(lines)
    except StopIteration:
        raise MalformedHeader("missing header", 0) from None
    parts = header.split()
    if len(parts) != 3 or parts[0] != "QMAT":
        raise MalformedHeader(f"expected 'QMAT <rows> <cols>', got {header!r}",
                              header_line)
    if not header.isascii() or "_" in header:
        _raise_bad_number(header[len("QMAT"):], header_line)
    try:
        rows, cols = int(parts[1]), int(parts[2])
    except ValueError:
        raise MalformedHeader(f"bad dimensions in {header!r}",
                              header_line) from None
    if rows < 1 or cols < 1:
        raise MalformedHeader(f"dimensions must be positive, got {rows} {cols}",
                              header_line)
    # row r holds the components w x y z of each entry in turn, so its
    # complex view holds a1[r, c], a2[r, c] in turn; data grows as rows
    # are read, so a header alone allocates nothing
    data = np.empty((0, 0))
    for r in range(rows):
        try:
            line_no, line = next(lines)
        except StopIteration:
            raise WrongEntryCount(
                f"expected {rows} rows, found {r}", header_line) from None
        fields = line.split()
        if len(fields) != 4 * cols:
            raise WrongEntryCount(
                f"expected {4 * cols} numbers, found {len(fields)}", line_no)
        if r == len(data):
            data.resize((min(2 * r + 1, rows), 4 * cols), refcheck=False)
        try:
            data[r] = [float(f) for f in fields]
        except ValueError:
            _raise_bad_number(line, line_no)
        # float() also reads underscores and non-ASCII digits
        if (not line.isascii() or "_" in line
                or not np.isfinite(data[r]).all()):
            _raise_bad_number(line, line_no)
    for line_no, line in lines:
        raise WrongEntryCount(f"unexpected extra data {line!r}", line_no)
    planes = data.view(complex).reshape(rows, cols, 2)
    return QMatrix(planes[:, :, 0], planes[:, :, 1])


def _decode(raw: bytes) -> str:
    """raw as UTF-8; BadNumber on the line, as _content_lines counts lines,
    of the first byte that is not."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        bad = raw[exc.start:exc.start + 1]
        raise BadNumber(f"invalid UTF-8 byte {bad!r}", line_no) from None


def _raise_bad_number(line: str, line_no: int):
    """Raise BadNumber for the first field of line that is not a finite
    float() in ASCII without underscores, else for a non-ASCII separator."""
    for f in line.split():
        if not f.isascii() or "_" in f:
            raise BadNumber(f"cannot parse {f!r}", line_no)
        try:
            value = float(f)
        except ValueError:
            raise BadNumber(f"cannot parse {f!r}", line_no) from None
        if not math.isfinite(value):
            raise BadNumber(f"{f!r} is not a finite number", line_no)
    raise BadNumber(f"non-ASCII separator in {line!r}", line_no)


def emit_qmat(a: QMatrix) -> str:
    """Emit the text form, round-trip exact."""
    rows, cols = a.shape
    # the header, then w x y z of each entry in turn: the float view of
    # the interleaved planes
    data = np.moveaxis(a.p, 0, -1).copy().view(float).ravel()
    row = " ".join(["%.17g"] * (4 * cols))
    return ("\n".join([f"QMAT {rows} {cols}"] + [row] * rows)
            % tuple(data.tolist())) + "\n"
