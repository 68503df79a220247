"""Property tests of the command-line contract in README: every command
line, and every matrix file, gives an exit code that README documents,
at most one `error:` line on stderr, and no traceback.

A draw that the contract lets run is kept at n <= 8, two trials and one
worker: sizes at and past cli.MAX_DIM are drawn only where another
argument, or the size itself, is refused before anything is allocated.
"""

import contextlib
import io
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qpolar import cli, emit_qmat, random_ops
from qpolar.qmatio import QMatFormatError, parse_qmat
from qpolar.rng import SplitMix64

# README: polar exits 0, 2 or 3; verify and example exit 0, 1 or 2; a
# command line argparse refuses exits 2
EXIT_CODES = {"polar": {0, 2, 3}, "verify": {0, 1, 2}, "example": {0, 1, 2}}
PROPERTY = settings(max_examples=80, derandomize=True, database=None,
                    deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

BIG = [str(cli.MAX_DIM), str(cli.MAX_DIM + 1), str(10 ** 12), "9" * 40]
BAD_INT = ["0", "-3", "abc", "1e3", "8.5", "", "nan"]
TOLS = ["1e-9", "1e-6", "nan", "inf", "-inf", "0", "-1e-9", "1e-400", "x"]
# no --tol, so the default, is drawn as often as all of TOLS
NO_TOL = [None] * len(TOLS)


def _int(raw):
    """int(raw) as argparse's type=int reads it, or None."""
    try:
        return int(raw)
    except ValueError:
        return None


def _tol_ok(raw):
    try:
        return raw is None or (math.isfinite(float(raw)) and float(raw) > 0)
    except ValueError:
        return False


def _verify_runs(dim, trials, seed, tol, jobs):
    """Whether README lets verify run with these values: sizes from 1 to
    MAX_DIM, a trial count and a job count of at least 1, a seed of 64
    unsigned bits and a finite positive tolerance."""
    d, k, s, j = (_int(x) for x in (dim, trials, seed, jobs or "1"))
    return (None not in (d, k, s, j) and 1 <= d <= cli.MAX_DIM and k >= 1
            and 0 <= s < 2 ** 64 and j >= 1 and _tol_ok(tol))


def run_main(argv):
    """(exit code, stderr) of cli.main(argv), stdout discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check_contract(argv, command):
    code, err = run_main(argv)
    assert code in EXIT_CODES.get(command, {2}), (argv, code, err)
    assert err.count("error:") <= 1, (argv, err)
    assert "Traceback" not in err, (argv, err)
    return code


@st.composite
def verify_argv(draw):
    dim = draw(st.sampled_from([str(k) for k in range(1, 9)] + BIG + BAD_INT))
    trials = draw(st.sampled_from(["1", "2", "2", "0", "-1", "x"]))
    seed = draw(st.sampled_from(["0", "42", "7", "-1", str(2 ** 64), "s"]))
    tol = draw(st.sampled_from(NO_TOL + TOLS))
    jobs = draw(st.sampled_from([None] * 3 + ["1", "0", "-2", "x"]))
    # a line that runs past n = 8 would allocate: refuse it by its trials
    if _verify_runs(dim, trials, seed, tol, jobs) and _int(dim) > 8:
        trials = "0"
    argv = ["verify", "--dim", dim, "--trials", trials, "--seed", seed]
    argv += [] if tol is None else ["--tol", tol]
    argv += [] if jobs is None else ["--jobs", jobs]
    return argv


@st.composite
def example_argv(draw):
    which = draw(st.sampled_from(["bounded", "unbounded", "sideways"]))
    n = draw(st.sampled_from(["7", "8", "3"] + BIG + BAD_INT))
    if _int(n) is not None and 8 < _int(n) <= cli.MAX_DIM:
        which = "sideways"  # refused by argparse before the size is read
    return ["example", which, "--n", n]


def polar_argv(files, outs):
    """polar on one of files, the first (a good one) drawn most often."""
    def optional(flag, values):
        return st.sampled_from(values).map(
            lambda v: [] if v is None else [flag, v])
    return st.builds(lambda path, *flags: ["polar", "--in", path]
                     + sum(flags, []), st.sampled_from(files[:1] * 4 + files),
                     optional("--tol", NO_TOL + TOLS),
                     optional("--out", [None] + outs))


def mutate_argv(draw_argv):
    """argv with one mutation: a flag dropped, an unknown flag or command,
    or a flag repeated; or argv as drawn."""
    def mutate(args, kind, k):
        k %= len(args)
        return {"keep": args, "drop": args[:k] + args[k + 1:],
                "unknown_flag": args + ["--bogus", "1"],
                "unknown_command": ["decompose"] + args[1:],
                "repeat": args + args[1:3]}[kind]
    return st.builds(mutate, draw_argv,
                     st.sampled_from(["keep"] * 4 + ["drop", "unknown_flag",
                                                     "unknown_command",
                                                     "repeat"]),
                     st.integers(0, 20))


def _matrix_files(tmp_path):
    good = tmp_path / "good.qmat"
    good.write_text(emit_qmat(random_ops.rand_qmatrix(SplitMix64(7), 3)))
    wide = tmp_path / "wide.qmat"
    wide.write_text(emit_qmat(random_ops.rand_qmatrix(SplitMix64(8), 2, 3)))
    bad = tmp_path / "bad.qmat"
    bad.write_bytes(b"QMAT 1 1\n1 2 \xff 4\n")
    return [str(good), str(wide), str(bad), str(tmp_path / "missing.qmat"),
            str(tmp_path)]


@pytest.mark.parametrize("command", ["verify", "example", "polar"])
def test_every_command_line_keeps_the_contract(command, tmp_path):
    outs = [str(tmp_path / "out.txt"), str(tmp_path / "no_dir" / "out.txt")]
    argv = {"verify": verify_argv(), "example": example_argv(),
            "polar": polar_argv(_matrix_files(tmp_path), outs)}[command]

    @PROPERTY
    @given(mutate_argv(argv))
    def check(args):
        check_contract(args, args[0] if args else None)

    check()


BAD_TOKENS = ["nan", "inf", "-inf", "1e400", "1_0", "١", "0x10", "--1",
              "1e", "１", ""]
BAD_HEADERS = ["QMAT", "QMAT 2", "QMAT 2 2 2", "qmat 2 2", "QMAT -1 2",
               "QMAT x 2", "QMAT ١ 2", "QMAT 1_0 2", "QMAT 0 0",
               f"QMAT {10 ** 12} 2", f"QMAT 2 {10 ** 12}", "9" * 40]


@st.composite
def qmat_bytes(draw):
    """A QMAT file with one mutation of its header, its rows or its
    encoding, or none."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    lines = emit_qmat(random_ops.rand_qmatrix(
        SplitMix64(draw(st.integers(0, 99))), rows, cols)).splitlines()
    kind = draw(st.sampled_from(["none"] * 4 + [
        "header", "drop_row", "extra_row", "token", "drop_token", "utf16",
        "latin1", "byte"]))
    r = draw(st.integers(1, rows))
    tokens = lines[r].split()
    t = draw(st.integers(0, len(tokens) - 1))
    if kind == "header":
        lines[0] = draw(st.sampled_from(BAD_HEADERS))
    elif kind == "drop_row":
        del lines[r]
    elif kind == "extra_row":
        lines.insert(r, lines[r])
    elif kind in ("token", "drop_token"):
        tokens[t:t + 1] = ([draw(st.sampled_from(BAD_TOKENS))]
                           if kind == "token" else [])
        lines[r] = " ".join(tokens)
    text = "# é\n" + "\n".join(lines) + "\n"
    if kind in ("utf16", "latin1"):
        return text.encode("utf-16" if kind == "utf16" else "latin-1")
    raw = text.encode("utf-8")
    if kind == "byte":
        k = draw(st.integers(0, len(raw)))
        byte = draw(st.sampled_from([b"\xff", b"\x00", b"\xc3"]))
        raw = raw[:k] + byte + raw[k:]
    return raw


def test_every_matrix_file_keeps_the_contract(tmp_path):
    path = tmp_path / "in.qmat"

    @PROPERTY
    @given(qmat_bytes())
    def check(raw):
        try:
            parse_qmat(raw)
        except QMatFormatError:
            pass
        path.write_bytes(raw)
        check_contract(["polar", "--in", str(path)], "polar")

    check()
