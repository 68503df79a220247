import math

import numpy as np
import pytest

from helpers import trial_rng
from qpolar import (BadNumber, MalformedHeader, QMatrix, WrongEntryCount,
                    emit_qmat, parse_qmat)
from qpolar import random_ops
from qpolar.quaternion import J, Quaternion


def test_parse_single_j():
    a = parse_qmat("QMAT 1 1\n0 0 1 0")
    assert a.entry(0, 0) == J


def test_parse_bytes_and_comments():
    text = b"# a comment\n\n# another\nQMAT 1 2\n1 0 0 0  0 1 0 0\n"
    a = parse_qmat(text)
    assert a.shape == (1, 2)
    assert a.entry(0, 0).w == 1.0 and a.entry(0, 1).x == 1.0


def test_wrong_entry_count_line_number():
    with pytest.raises(WrongEntryCount) as exc:
        parse_qmat("QMAT 1 1\n0 0 1")
    assert exc.value.line == 2
    with pytest.raises(WrongEntryCount):
        parse_qmat("QMAT 2 1\n0 0 1 0")  # missing second row
    with pytest.raises(WrongEntryCount) as exc:
        parse_qmat("QMAT 1 1\n0 0 1 0\n1 2 3 4")  # extra data
    assert exc.value.line == 3
    # only the rows read are held, so a header asks for no memory: these
    # are past what numpy could allocate at all
    with pytest.raises(WrongEntryCount) as exc:
        parse_qmat("QMAT 3000000000 3000000000\n1 2 3 4\n")
    assert str(exc.value) == "line 2: expected 12000000000 numbers, found 4"
    with pytest.raises(WrongEntryCount) as exc:
        parse_qmat(f"QMAT {10 ** 18} 1\n1 2 3 4\n")
    assert str(exc.value) == f"line 1: expected {10 ** 18} rows, found 1"
    with pytest.raises(WrongEntryCount) as exc:
        parse_qmat(f"QMAT 1 {10 ** 24}\n1 2 3 4\n")
    assert str(exc.value) == (
        f"line 2: expected {4 * 10 ** 24} numbers, found 4")
    # a bad row is still reported before a short row after it
    with pytest.raises(BadNumber) as exc:
        parse_qmat("QMAT 2 1\n1 inf 3 4\n1 2 3")
    assert exc.value.line == 2


def test_malformed_header():
    for text in ("", "HELLO 1 1", "QMAT 1", "QMAT a b\n", "QMAT 0 2\n"):
        with pytest.raises(MalformedHeader):
            parse_qmat(text)


def test_bad_number():
    with pytest.raises(BadNumber) as exc:
        parse_qmat("QMAT 1 1\n0 0 one 0")
    assert exc.value.line == 2
    # non-finite values and literals that overflow a double
    for bad in ("nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400"):
        with pytest.raises(BadNumber) as exc:
            parse_qmat(f"# comment\nQMAT 1 2\n1 0 0 0 0 {bad} 0 0")
        assert exc.value.line == 3


def test_bad_number_first_in_field_order():
    # the error names the first bad token of the row, whichever its kind
    for row, message in (("1e400 x 0", "'1e400' is not a finite number"),
                         ("x 1e400 0", "cannot parse 'x'"),
                         ("0 nan x", "'nan' is not a finite number")):
        with pytest.raises(BadNumber) as exc:
            parse_qmat(f"QMAT 2 1\n1 2 3 4\n# c\n{row} 0")
        assert exc.value.line == 4
        assert str(exc.value) == f"line 4: {message}"
    # an earlier row is reported before a later one
    with pytest.raises(BadNumber) as exc:
        parse_qmat("QMAT 2 1\n1 inf 3 4\nx 0 0 0")
    assert str(exc.value) == "line 2: 'inf' is not a finite number"


def test_invalid_utf8_names_its_line():
    with pytest.raises(BadNumber) as exc:
        parse_qmat(b"QMAT 1 1\n1 0 0 \xff0\n")
    assert str(exc.value) == "line 2: invalid UTF-8 byte b'\\xff'"
    # lines are counted as the parser counts them, comments and blank
    # lines included; a comment must be UTF-8 too
    for raw, line in ((b"# caf\xe9\nQMAT 1 1\n1 0 0 0\n", 1),
                      (b"QMAT 1 1\r\n\r\n1 0 0 0 \xc3", 3)):
        with pytest.raises(BadNumber) as exc:
            parse_qmat(raw)
        assert exc.value.line == line


def test_every_float_literal_parses():
    literals = ["+.5", "-0", "0.", "1E5", "-1e-320", "4.9e-324",
                "1.7976931348623157e308", "0001"]
    for w, x, y, z in zip(*[iter(literals)] * 4):
        a = parse_qmat(f"QMAT 1 1\n{w} {x} {y} {z}")
        got = a.entry(0, 0)
        want = np.array([float(v) for v in (w, x, y, z)])
        assert np.array_equal(np.array([got.w, got.x, got.y, got.z])
                              .view(np.uint64), want.view(np.uint64))


# float() reads these, the grammar does not: an underscore, Arabic-Indic
# and fullwidth digits
OUTSIDE_GRAMMAR = ("1_000", "\u0663", "\uff11\uff12.5")


def test_non_ascii_and_underscore_literals_rejected():
    for bad in OUTSIDE_GRAMMAR:
        with pytest.raises(BadNumber) as exc:
            parse_qmat(f"# comment\nQMAT 1 2\n1 0 0 0 0 {bad} 0 0")
        assert str(exc.value) == f"line 3: cannot parse {bad!r}"
        # in the header's dimensions too, which int() also reads
        with pytest.raises(BadNumber) as exc:
            parse_qmat(f"QMAT 1 {bad}\n1 0 0 0")
        assert str(exc.value) == f"line 1: cannot parse {bad!r}"
    # a non-ASCII character that split() takes for a separator
    with pytest.raises(BadNumber) as exc:
        parse_qmat("QMAT 1 1\n1\u20030 0 0")
    assert exc.value.line == 2
    # the first bad token of the row is named, whichever its kind
    with pytest.raises(BadNumber) as exc:
        parse_qmat("QMAT 1 1\n1 1_0 x inf")
    assert str(exc.value) == "line 2: cannot parse '1_0'"
    # comments may hold any text
    assert parse_qmat("# \u00e9t\u00e9 1_000\nQMAT 1 1\n0 0 1 0").entry(0, 0) == J


def test_signed_zero_and_subnormal_roundtrip():
    a1 = np.array([[complex(-0.0, 5e-324), complex(2.5e-310, -0.0)]])
    a2 = np.array([[complex(0.0, -2.2250738585072009e-308), 1.0]])
    text = emit_qmat(QMatrix(a1, a2))
    assert text.splitlines()[1].startswith("-0 4.9406564584124654e-324 0 ")
    b = parse_qmat(text)
    for want, got in ((a1, b.a1), (a2, b.a2)):
        assert np.array_equal(want.view(np.uint64), got.view(np.uint64))


def test_parse_format_roundtrip():
    # one entry: its line is the four components in "%.17g", and parsing
    # it gives the quaternion back exactly
    q = Quaternion(1.5, -2.25, 1 / 3, math.pi)
    text = emit_qmat(QMatrix.diag([q]))
    assert text == "QMAT 1 1\n" + " ".join(
        "%.17g" % c for c in (q.w, q.x, q.y, q.z)) + "\n"
    assert parse_qmat(text).entry(0, 0) == q


def test_roundtrip_bit_exact():
    rr = trial_rng(80)
    a = random_ops.rand_qmatrix(rr, 3)
    text = emit_qmat(a)
    b = parse_qmat(text)
    assert (a.a1 == b.a1).all() and (a.a2 == b.a2).all()
    assert emit_qmat(b) == text

