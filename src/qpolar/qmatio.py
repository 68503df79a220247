"""Text format for quaternion matrices.

Grammar: any number of comment lines starting with '#', a header line
"QMAT <rows> <cols>", then one line per row holding cols entries, each
entry four space-separated finite decimal reals (w x y z); NaN, infinities
and literals that overflow a double are rejected. Blank lines are
ignored. Emission uses 17 significant digits, so parse(emit(A)) is
bit-exact.
"""

from __future__ import annotations

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
    """Parse the text form of a quaternion matrix."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = _content_lines(text)
    try:
        header_line, header = next(lines)
    except StopIteration:
        raise MalformedHeader("missing header", 0) from None
    parts = header.split()
    if len(parts) != 3 or parts[0] != "QMAT":
        raise MalformedHeader(f"expected 'QMAT <rows> <cols>', got {header!r}",
                              header_line)
    try:
        rows, cols = int(parts[1]), int(parts[2])
    except ValueError:
        raise MalformedHeader(f"bad dimensions in {header!r}",
                              header_line) from None
    if rows < 1 or cols < 1:
        raise MalformedHeader(f"dimensions must be positive, got {rows} {cols}",
                              header_line)
    a1 = np.zeros((rows, cols), dtype=complex)
    a2 = np.zeros((rows, cols), dtype=complex)
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
        for c in range(cols):
            comps = []
            for f in fields[4 * c:4 * c + 4]:
                try:
                    value = float(f)
                except ValueError:
                    raise BadNumber(f"cannot parse {f!r}", line_no) from None
                if not np.isfinite(value):
                    raise BadNumber(f"{f!r} is not a finite number", line_no)
                comps.append(value)
            a1[r, c] = complex(comps[0], comps[1])
            a2[r, c] = complex(comps[2], comps[3])
    for line_no, line in lines:
        raise WrongEntryCount(f"unexpected extra data {line!r}", line_no)
    return QMatrix(a1, a2)


def emit_qmat(a: QMatrix, comment: str | None = None) -> str:
    """Emit the text form, round-trip exact."""
    rows, cols = a.shape
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(f"QMAT {rows} {cols}")
    for r in range(rows):
        fields = []
        for c in range(cols):
            q = a.entry(r, c)
            fields.append(q.format())
        out.append(" ".join(fields))
    return "\n".join(out) + "\n"
