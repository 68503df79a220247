import pytest

from helpers import trial_rng
from qpolar import (BadNumber, MalformedHeader, QMatrix, WrongEntryCount,
                    emit_qmat, parse_qmat)
from qpolar import random_ops
from qpolar.quaternion import J


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


def test_roundtrip_bit_exact():
    rr = trial_rng(80)
    a = random_ops.rand_qmatrix(rr, 3)
    text = emit_qmat(a)
    b = parse_qmat(text)
    assert (a.a1 == b.a1).all() and (a.a2 == b.a2).all()
    assert emit_qmat(b) == text


def test_emit_with_comment_stays_parseable():
    rr = trial_rng(81)
    a = random_ops.rand_qmatrix(rr, 2)
    text = emit_qmat(a, comment="case 12\nsecond line")
    assert text.startswith("# case 12\n# second line\n")
    b = parse_qmat(text)
    assert (a.a1 == b.a1).all() and (a.a2 == b.a2).all()
