import concurrent.futures
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (conditioned_qmatrix, gaussian_qmatrix,
                     record_kernel_inputs, record_svd_inputs)
from qpolar import (BlockStructureViolation, QMatrix, chi, ckernel, cli,
                    emit_qmat, parse_qmat, polar_decompose, weight_matrix)
from qpolar.cli import (SuiteConfig, cmd_example, cmd_polar, cmd_verify,
                        default_tol, example_report, main, polar_report,
                        run_suite, _run_suite_trial)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def weight_file(tmp_path):
    path = tmp_path / "weight10.qmat"
    path.write_text(emit_qmat(weight_matrix(10)))
    return str(path)


def test_suite_config_validation():
    SuiteConfig(dim=1, trials=1, seed=0, tol=1e-9)
    SuiteConfig(dim=cli.MAX_DIM, trials=1, seed=0, tol=1e-9)
    for dim in (0, cli.MAX_DIM + 1):
        with pytest.raises(ValueError):
            SuiteConfig(dim=dim, trials=1, seed=0, tol=1e-9)
    with pytest.raises(ValueError):
        SuiteConfig(dim=1, trials=0, seed=0, tol=1e-9)
    with pytest.raises(ValueError):
        SuiteConfig(dim=1, trials=1, seed=-1, tol=1e-9)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SuiteConfig(dim=1, trials=1, seed=0, tol=tol)


def test_default_tol_env(monkeypatch, tmp_path, weight_file, capsys):
    monkeypatch.delenv("QPOLAR_TOL", raising=False)
    assert default_tol() == 1e-9
    monkeypatch.setenv("QPOLAR_TOL", "1e-7")
    assert default_tol() == 1e-7
    monkeypatch.setenv("QPOLAR_TOL", "zero")
    with pytest.raises(ValueError):
        default_tol()
    # only polar and verify take a tolerance, so only they read it
    assert main(["polar", "--in", weight_file]) == 2
    assert main(["verify", "--dim", "2", "--trials", "1", "--seed", "1"]) == 2
    assert capsys.readouterr().err.count("is not a number") == 2
    # a tolerance that is not finite and positive would let every check
    # pass (inf, nan) or fail (negative), so it is refused before any work
    for raw in ("nan", "inf", "-1"):
        monkeypatch.setenv("QPOLAR_TOL", raw)
        with pytest.raises(ValueError):
            default_tol()
        assert main(["polar", "--in", weight_file]) == 2
        assert main(["verify", "--dim", "2", "--trials", "1",
                     "--seed", "1"]) == 2
    assert capsys.readouterr().err.count(
        "error: QPOLAR_TOL must be finite and positive") == 6
    assert main(["example", "bounded", "--n", "9",
                 "--out", str(tmp_path / "e.txt")]) == 0
    assert "summary" in (tmp_path / "e.txt").read_text()
    # --tol goes through the same check
    monkeypatch.delenv("QPOLAR_TOL")
    for raw in ("nan", "inf", "-1", "0"):
        assert main(["polar", "--in", weight_file, "--tol", raw]) == 2
        assert main(["verify", "--dim", "2", "--trials", "1", "--seed", "1",
                     "--tol", raw]) == 2
    err = capsys.readouterr().err
    assert err.count("error: --tol must be finite and positive") == 8
    assert main(["polar", "--in", weight_file, "--tol", "1e-9"]) == 0


def test_cmd_polar_weight_matrix(weight_file, tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = cmd_polar(weight_file, 1e-9, str(out))
    assert code == 0
    body = out.read_text()
    assert "unique false" in body
    assert "null_rank 3" in body
    assert "corange_rank 3" in body
    assert "# U0" in body and "# |T|" in body
    assert "FAIL" not in body


def test_cmd_polar_identity(tmp_path):
    path = tmp_path / "eye.qmat"
    path.write_text(emit_qmat(QMatrix.identity(3)))
    out = tmp_path / "report.txt"
    assert cmd_polar(str(path), 1e-9, str(out)) == 0
    body = out.read_text()
    assert "unique true" in body
    assert "null_rank 0" in body


def test_cmd_polar_parse_error(tmp_path, capsys):
    path = tmp_path / "garbage.qmat"
    path.write_text("QMAT 2 2\n1 2 3\n")
    assert cmd_polar(str(path), 1e-9, None) == 2
    assert cmd_polar(str(tmp_path / "missing.qmat"), 1e-9, None) == 2
    rect = tmp_path / "rect.qmat"
    rect.write_text("QMAT 1 2\n1 0 0 0 0 0 0 0\n")
    assert cmd_polar(str(rect), 1e-9, None) == 2
    for k, bad in enumerate(("nan", "inf", "-inf", "1e400", "1_000",
                             "\u0663", "\uff11\uff12.5")):
        path = tmp_path / f"bad{k}.qmat"
        path.write_text(f"QMAT 2 2\n1 0 0 0 0 0 0 0\n0 0 0 0 {bad} 0 0 0\n",
                        encoding="utf-8")
        assert cmd_polar(str(path), 1e-9, None) == 2
        assert main(["polar", "--in", str(path)]) == 2
    path = tmp_path / "header.qmat"
    path.write_text("QMAT \uff12 2\n", encoding="utf-8")
    assert cmd_polar(str(path), 1e-9, None) == 2
    # a header past what numpy can allocate and a byte that is not UTF-8
    # each exit 2 with one error line; CI runs both files too
    for name, message in (
            ("oversized_header.qmat",
             "line 2: expected 12000000000 numbers, found 4"),
            ("non_utf8.qmat", "line 2: invalid UTF-8 byte b'\\xff'")):
        capsys.readouterr()
        assert main(["polar", "--in", str(DATA / "malformed" / name)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cmd_polar_overflow_exit(tmp_path, capsys):
    # entries near 1e300 are factored after an exact scaling: U0 is the
    # one of T and |T| is 2**996 times the one of T, bit for bit
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    t = random_ops.rand_qmatrix(SplitMix64(3), 4)
    path = tmp_path / "huge.qmat"
    path.write_text(emit_qmat(t * 2.0 ** 996))
    out = tmp_path / "r.txt"
    assert cmd_polar(str(path), 1e-9, str(out)) == 0
    body = out.read_text()
    assert "summary 7 checks 7 passed 0 failed" in body
    f = polar_decompose(t)
    assert emit_qmat(f.u0) in body
    assert emit_qmat(f.abs_t * 2.0 ** 996) in body
    # a singular value beyond the largest double is a genuine overflow
    path.write_text(emit_qmat(QMatrix(np.full((4, 4), 1.5e308 + 0j))))
    out.unlink()
    assert cmd_polar(str(path), 1e-9, str(out)) == 3
    assert "error: operator overflows when factored" in capsys.readouterr().err
    assert not out.exists()


def test_polar_report_factors_each_operator_once(monkeypatch):
    # one SVD each for T and U0: the rank of T comes from the polar
    # factorization and the rank of U0 from its classification; the
    # positivity of |T| is certified from the SVD of T, with no
    # factorization of |T|
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    t = random_ops.rank_deficient(SplitMix64(11), 5, 3)
    inputs = record_svd_inputs(monkeypatch)
    report, f = polar_report(t, 1e-9)
    assert report.passed and f.null_rank == 2
    assert len(inputs) == 2
    assert len({m.tobytes() for m in inputs}) == 2


def test_polar_report_eigensolves(monkeypatch):
    # the SVDs of T and U0 are Jacobi SVDs and solve no eigenproblem, and
    # at every rank the positivity of |T| is certified from the SVD of T
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    full = gaussian_qmatrix(np.random.default_rng(12), 6)
    deficient = random_ops.rank_deficient(SplitMix64(12), 6, 3)
    for t in (full, deficient):
        inputs = record_kernel_inputs(monkeypatch, "hermitian_eig")
        report, f = polar_report(t, 1e-9)
        assert report.passed and f.unique == (t is full)
        assert inputs == []
        monkeypatch.undo()


def test_cmd_polar_without_eigensolver(tmp_path, monkeypatch):
    # below full rank too, qpolar polar runs with no Hermitian eigensolver
    def refuse(p):
        raise AssertionError("qpolar polar solved an eigenproblem")

    monkeypatch.setattr(ckernel, "hermitian_eig", refuse)
    out = tmp_path / "r.txt"
    assert cmd_polar(str(DATA / "rank_deficient_32_16.qmat"), 1e-9,
                     str(out)) == 0
    body = out.read_text()
    assert "# null_rank 16\n" in body and "# unique false\n" in body
    assert "summary 7 checks 7 passed 0 failed" in body


def test_eigensolves_run_on_planes(monkeypatch):
    # every SVD the battery takes of its quaternion operators, the one
    # factorization every root and damping factor reads, gets the n x n
    # planes, never the 2n x 2n complex image; the chi suite alone
    # factors such an image, on purpose, to compare norms with it
    inputs = record_svd_inputs(monkeypatch)
    for suite in ("sqrt", "polar", "dichotomy", "transform"):
        for trial in range(3):
            _run_suite_trial((suite, 4, 1e-9, 42, trial))
    assert inputs
    assert all(x.ndim == 3 and x.shape[0] == 2 and x.shape[1] <= 4
               for x in inputs)


def test_factorizations_get_one_planes_array(monkeypatch):
    # every SVD a battery pass or a polar report takes gets its operator
    # as one planes array (2, rows, cols), QMatrix.p; every positive root
    # reads such an SVD, and none is a ckernel.psd_sqrt call
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    svds = record_svd_inputs(monkeypatch)
    roots = record_kernel_inputs(monkeypatch, "psd_sqrt")
    assert cmd_verify(SuiteConfig(dim=4, trials=3, seed=42, tol=1e-9)).passed
    assert polar_report(random_ops.rank_deficient(SplitMix64(13), 6, 3),
                        1e-9)[0].passed
    assert svds and roots == []
    assert all(x.ndim == 3 and x.shape[0] == 2 for x in svds)


def test_battery_pass_solves_no_eigenproblem(monkeypatch):
    # positivity and every positive root read the SVD: a whole battery
    # pass never calls the Hermitian eigensolver
    inputs = record_kernel_inputs(monkeypatch, "hermitian_eig")
    assert cmd_verify(SuiteConfig(dim=4, trials=5, seed=42, tol=1e-9)).passed
    assert inputs == []


def test_cmd_polar_ill_conditioned_factors(tmp_path, capsys):
    # condition number 1e6, which the Gram route could not pull back: the
    # structured Jacobi SVD factors it with every check passing
    t = conditioned_qmatrix(0, 8, 1e6)
    path = tmp_path / "cond.qmat"
    path.write_text(emit_qmat(t))
    out = tmp_path / "r.txt"
    assert cmd_polar(str(path), 1e-9, str(out)) == 0
    assert capsys.readouterr().err == ""
    body = out.read_text()
    assert "# null_rank 0\n" in body and "# unique true\n" in body
    assert "summary 7 checks 7 passed 0 failed" in body
    assert main(["polar", "--in", str(path), "--out", str(out)]) == 0
    assert polar_decompose(t).unique


def _numpy_null_rank(t: QMatrix) -> int:
    """Singular value pairs of chi(T) at or below the rank cut, by numpy."""
    sv = np.linalg.svd(chi(t), compute_uv=False)
    cut = ckernel.RANK_TOL * 2 * t.shape[0] * sv[0]
    return int(np.count_nonzero(sv[0::2] <= cut))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_condition_number_grid():
    # W1 diag(logspace(0, -k, n)) W2 at n = 2..16 and cond 1e3..1e12, two
    # draws each: every cell factors with every check passing, and with
    # the null rank numpy's singular values give at the same cut
    for n in (2, 4, 8, 16):
        for k in range(3, 13):
            for seed in (0, 1):
                t = conditioned_qmatrix(seed, n, 10.0 ** k)
                report, f = polar_report(t, 1e-9)
                assert report.passed, (n, k, seed, report.format())
                assert f.null_rank == _numpy_null_rank(t), (n, k, seed)


def test_rank_cut_below_report_gate():
    # the rank cut 64 eps 2n s[0] lies below the report's 1e-9 gate, so an
    # operator of cond up to 1e12 is full rank at n = 16 and 32, and each
    # singular value is within 2n eps s[0] of the planted one
    eps = np.finfo(float).eps
    for n in (16, 32):
        for k in (10, 11, 12):
            for seed in (0, 1):
                t = conditioned_qmatrix(seed, n, 10.0 ** k)
                report, f = polar_report(t, 1e-9)
                assert report.passed and f.null_rank == 0, (n, k, seed)
                s = f.fac.s
                assert np.max(np.abs(s - np.logspace(0, -k, n))) \
                    <= 2 * n * eps * s[0], (n, k, seed)


def test_cmd_polar_committed_inputs():
    # the cond-1e9 n = 16 operator and the subnormal 2 x 2 matrix also run
    # in CI with RuntimeWarning as an error; the first is full rank, as
    # numpy finds it too
    cond = parse_qmat((DATA / "cond1e9_n16.qmat").read_text())
    report, f = polar_report(cond, 1e-9)
    assert report.passed and f.null_rank == _numpy_null_rank(cond) == 0
    tiny = parse_qmat((DATA / "subnormal_2x2.qmat").read_text())
    assert np.all(tiny.a1 == tiny.a1[0, 0]) and not tiny.a2.any()
    assert 0.0 < abs(tiny.a1[0, 0]) < np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report, f = polar_report(tiny, 1e-9)
    assert report.passed and f.null_rank == 1 and not f.unique


def test_cmd_polar_no_convergence_exit(tmp_path, monkeypatch, capsys):
    path = tmp_path / "gauss.qmat"
    path.write_text(emit_qmat(gaussian_qmatrix(np.random.default_rng(13), 16)))
    out = tmp_path / "r.txt"
    monkeypatch.setattr(ckernel, "MAX_SWEEPS", 1)
    assert cmd_polar(str(path), 1e-9, str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "error: the Jacobi SVD (of T or U0) did not converge")
    assert not out.exists()


def test_cmd_polar_block_violation_after_factoring_propagates(
        tmp_path, monkeypatch, capsys):
    # no exit code maps a block-structure violation: one raised after
    # factoring is a fault and keeps its traceback
    from qpolar import cli

    def planted(*args, **kwargs):
        raise BlockStructureViolation("planted")

    path = tmp_path / "eye.qmat"
    path.write_text(emit_qmat(QMatrix.identity(3)))
    monkeypatch.setattr(cli, "classify", planted)
    with pytest.raises(BlockStructureViolation, match="planted"):
        cmd_polar(str(path), 1e-9)
    assert capsys.readouterr().out == ""


def _scaled_rank_deficient_file(tmp_path, exponent: int) -> str:
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    path = tmp_path / f"scaled{exponent}.qmat"
    path.write_text(emit_qmat(random_ops.rank_deficient(SplitMix64(3), 8, 4)
                              * 2.0 ** exponent))
    return str(path)


def test_cmd_polar_tiny_scale_rank_deficient(tmp_path):
    # entries near 1e-100: the squares of the Gram matrix entries underflow,
    # and the eigensolver must still rotate
    out = tmp_path / "r.txt"
    assert cmd_polar(_scaled_rank_deficient_file(tmp_path, -332), 1e-9,
                     str(out)) == 0
    body = out.read_text()
    assert "# null_rank 4\n" in body and "FAIL" not in body


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cmd_polar_large_scale_no_overflow_warning(tmp_path):
    # entries near 1e72: no residual of the report may overflow on the way
    out = tmp_path / "r.txt"
    assert cmd_polar(_scaled_rank_deficient_file(tmp_path, 240), 1e-9,
                     str(out)) == 0
    body = out.read_text()
    assert "summary 7 checks 7 passed 0 failed" in body


def test_polar_report_abs_positive_is_relative(tmp_path):
    # the positivity residual of |T| is the certificate delta of the SVD,
    # O(n eps ||T||), and the rounding of forming |T| that it bounds is
    # O(eps ||T||) in numpy's eigenvalues of chi(|T|) too; so the line is
    # relative to max(1, ||T||), as the four identities and the positivity
    # flag are
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    t = random_ops.rank_deficient(SplitMix64(3), 8, 4) * 2.0 ** 240
    report, f = polar_report(t, 1e-9)
    line = next(c for c in report.checks if c.name == "abs_positive_rel")
    residual = f.abs_positivity()[0]
    assert line.value == residual / f.fac.sigma_max < 1e-14
    lam = np.linalg.eigvalsh(chi(f.abs_t))[0]
    assert abs(lam) < 1e-15 * f.fac.sigma_max
    assert report.passed
    # at ||T|| <= 1 the line is the absolute residual
    small = random_ops.rank_deficient(SplitMix64(3), 8, 4)
    small = small * (0.5 / polar_decompose(small).fac.sigma_max)
    report, f = polar_report(small, 1e-9)
    assert next(c.value for c in report.checks
                if c.name == "abs_positive_rel") == f.abs_positivity()[0]
    path = tmp_path / "r.txt"
    path.write_text(emit_qmat(t))
    assert cmd_polar(str(path), 1e-9, str(tmp_path / "out.txt")) == 0
    assert "\nabs_positive_rel " in (tmp_path / "out.txt").read_text()


def test_cmd_polar_invariant_failure_exit(tmp_path):
    # an absurd tolerance turns honest rounding into an invariant failure
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    path = tmp_path / "dense.qmat"
    path.write_text(emit_qmat(random_ops.rand_qmatrix(SplitMix64(3), 4)))
    assert cmd_polar(str(path), 1e-30, str(tmp_path / "r.txt")) == 3


def test_cmd_example_bounded(tmp_path):
    out = tmp_path / "ex.txt"
    assert cmd_example("bounded", 10, str(out)) == 0
    body = out.read_text()
    assert "modulus_diagonal" in body
    assert "perturbed_e4_to_e3" in body
    assert "FAIL" not in body


def test_cmd_example_unbounded(tmp_path):
    out = tmp_path / "ex.txt"
    assert cmd_example("unbounded", 10, str(out)) == 0
    body = out.read_text()
    assert "transform_coincides" in body
    assert "polar_transport" in body
    assert "FAIL" not in body


def test_cmd_example_small_n_variants(tmp_path):
    assert cmd_example("bounded", 7, str(tmp_path / "b7.txt")) == 0
    assert cmd_example("unbounded", 7, str(tmp_path / "u7.txt")) == 0
    assert cmd_example("bounded", 6, str(tmp_path / "b6.txt")) == 2


@pytest.mark.parametrize("which", ["bounded", "unbounded"])
def test_example_report_matches_committed_bytes(which):
    # the examples read the null and corange bases, the perturbation and
    # the contraction norm, which the pinned polar digests do not cover
    want = (DATA / f"example_{which}_n9.txt").read_text()
    assert example_report(which, 9).format() == want


def test_example_report_rejects_unknown():
    with pytest.raises(ValueError):
        example_report("sideways", 10)


def test_run_suite_minimal_dims():
    cfg = SuiteConfig(dim=1, trials=2, seed=0, tol=1e-9)
    for suite in ("chi", "sqrt", "polar", "dichotomy", "transform"):
        for check in run_suite(suite, cfg):
            assert check.passed, check.format()
    with pytest.raises(ValueError):
        run_suite("bogus", cfg)


def test_cmd_verify_scalar_degenerate_case():
    # dim=1 trials=1 seed=0 exercises the scalar corner of every suite
    report = cmd_verify(SuiteConfig(dim=1, trials=1, seed=0, tol=1e-9))
    assert report.passed


def test_cmd_verify_small_battery():
    cfg = SuiteConfig(dim=4, trials=5, seed=42, tol=1e-9)
    report = cmd_verify(cfg)
    assert report.passed
    good, bad = report.counts()
    assert bad == 0 and good == len(report.checks)
    text = report.format()
    assert "summary" in text


def _assert_verify_matches_committed(dim: int, trials: int, seed: int):
    # a change in any report byte at a fixed config shows up as a diff of
    # the committed file, to be made deliberately and explained
    name = f"verify_d{dim}_t{trials}_s{seed}.txt"
    want = (DATA / name).read_text(encoding="utf-8")
    cfg = SuiteConfig(dim=dim, trials=trials, seed=seed, tol=1e-9)
    assert cmd_verify(cfg).format() == want


def test_verify_report_matches_committed_bytes():
    _assert_verify_matches_committed(8, 10, 42)


def test_verify_report_at_n16_matches_committed_bytes():
    # the d8 report never draws n above 8; this one reaches n = 16
    _assert_verify_matches_committed(16, 6, 3)


def test_verify_report_at_d4_matches_committed_bytes():
    # n = 1..4: Jacobi calls on odd column counts and on one column, and
    # Gauss-Jordan on the 2 x 2 image of a 1 x 1 operator, the edge sizes
    # of the bulk draws and of the vectorized elimination
    _assert_verify_matches_committed(4, 25, 11)


def _pinned_polar_inputs():
    """(name, QMAT text) of the inputs whose `qpolar polar` bytes are pinned:
    the committed files, among them a half-rank draw at n = 32, and
    full-rank draws at odd n (one column of every Jacobi round sits out)."""
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    for path in sorted(DATA.glob("*.qmat")):
        yield path.name, path.read_text(encoding="utf-8")
    for n in (7, 47):
        yield (f"rand_qmatrix_{n}",
               emit_qmat(random_ops.rand_qmatrix(SplitMix64(n), n)))


def test_cmd_polar_matches_pinned_digests(tmp_path):
    # sha256 of the report and both factors, as the parse, the Jacobi
    # kernel and the emitter produced them when the digests were committed
    import hashlib
    want = dict(line.split()[::-1] for line in
                (DATA / "polar_sha256.txt").read_text().splitlines())
    got = {}
    for name, text in _pinned_polar_inputs():
        src, out = tmp_path / "in.qmat", tmp_path / "out.txt"
        src.write_text(text, encoding="utf-8")
        assert cmd_polar(str(src), 1e-9, str(out)) == 0, name
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == want


def test_transform_trial_reads_abs_t_from_polar_decompose(monkeypatch):
    # six SVDs: the draw bounded_norm scales, t, t*, z, the unitary draw
    # of the normal operator and that operator. Every damping factor reads
    # its operator's SVD, and so do |Z| and |T|; nothing is inverted and
    # no root is taken apart from them
    svds = record_svd_inputs(monkeypatch)
    roots = record_kernel_inputs(monkeypatch, "psd_sqrt")
    inverses = record_kernel_inputs(monkeypatch, "gauss_inv")
    _run_suite_trial(("transform", 4, 1e-9, 42, 0))
    assert (len(svds), len(roots), len(inverses)) == (6, 0, 0)


def test_cmd_verify_deterministic_and_parallel():
    cfg = SuiteConfig(dim=3, trials=4, seed=7, tol=1e-9)
    serial_a = cmd_verify(cfg).format()
    serial_b = cmd_verify(cfg).format()
    parallel = cmd_verify(cfg, jobs=2).format()
    assert serial_a == serial_b == parallel


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool cli makes, which it imports from
    concurrent.futures when it makes one. Each pool maps in this process,
    so no worker is started."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("jobs, cpus, want", [
    (100000, 64, 3),  # capped at the trial count
    (100000, 2, 2),  # capped at the CPU count
    (2, 64, 2),
    (100000, None, None),  # no CPU count: serial, no pool
    (1, 64, None),
])
def test_verify_jobs_capped(monkeypatch, pool_sizes, jobs, cpus, want):
    cfg = SuiteConfig(dim=3, trials=3, seed=7, tol=1e-9)
    serial = cmd_verify(cfg).format()
    assert pool_sizes == []
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cmd_verify(cfg, jobs=jobs).format() == serial
    assert pool_sizes == ([] if want is None else [want] * 5)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_exits_2(pool_sizes, capsys, jobs):
    assert main(["verify", "--dim", "2", "--trials", "2", "--seed", "5",
                 "--jobs", jobs]) == 2
    assert capsys.readouterr().err == "error: --jobs must be at least 1\n"
    assert pool_sizes == []


@pytest.mark.parametrize("size", [10 ** 10, cli.MAX_DIM + 1])
def test_oversized_dimension_exits_2(monkeypatch, capsys, size):
    # refused with one error line before anything of that size is
    # allocated: the report builders are never reached. MAX_DIM is the
    # largest n at which 256 complex n x n arrays fit the memory budget
    assert 256 * 16 * cli.MAX_DIM ** 2 <= cli.MEMORY_BUDGET \
        < 256 * 16 * (cli.MAX_DIM + 1) ** 2

    def refuse(*args):
        raise AssertionError("a report was started")

    monkeypatch.setattr(cli, "example_report", refuse)
    monkeypatch.setattr(cli, "run_suite", refuse)
    assert main(["example", "bounded", "--n", str(size)]) == 2
    assert main(["verify", "--dim", str(size), "--trials", "1",
                 "--seed", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --n must be at most {cli.MAX_DIM}",
        f"error: dim must be from 1 to {cli.MAX_DIM}"]


def test_import_loads_no_parser_or_pool():
    # argparse and the process pool are imported where they are used, by
    # main and by verify --jobs N > 1, so importing the module loads neither
    code = ("import sys, qpolar.cli; print([m for m in ('argparse', "
            "'concurrent.futures', 'multiprocessing') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout == "[]\n"


def test_main_verify_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    code = main(["verify", "--dim", "2", "--trials", "2", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    assert "summary" in out.read_text()
    # invalid config is rejected before any work happens
    assert main(["verify", "--dim", "2", "--trials", "0", "--seed", "5"]) == 2


def test_unwritable_out_exits_2(tmp_path, weight_file, capsys):
    # exit 1 would read as a failed check, so a report that cannot be
    # written is a usage error, like an unreadable --in
    out = str(tmp_path / "missing" / "r.txt")
    assert main(["polar", "--in", weight_file, "--out", out]) == 2
    assert main(["verify", "--dim", "1", "--trials", "1", "--seed", "0",
                 "--out", out]) == 2
    assert main(["example", "bounded", "--n", "7", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith(f"error: cannot write {out}: ")
               for line in err)


def test_main_polar_and_example(tmp_path, weight_file):
    out = tmp_path / "p.txt"
    assert main(["polar", "--in", weight_file, "--out", str(out)]) == 0
    assert "unique false" in out.read_text()
    assert main(["example", "bounded", "--n", "10",
                 "--out", str(tmp_path / "e.txt")]) == 0
