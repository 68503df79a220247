import concurrent.futures
import dataclasses
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
from qpolar import (BlockStructureViolation, QMatrix, chi, ckernel, classify,
                    cli, emit_qmat, parse_qmat, polar_decompose,
                    transform, weight_matrix)
from qpolar.cli import (SuiteConfig, cmd_example, cmd_polar, cmd_verify,
                        example_report, main, polar_report, run_suite,
                        _run_suite_trial)

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


def test_tol_flag_is_checked(tmp_path, weight_file, capsys):
    # a tolerance that is not finite and positive would let every check
    # pass (inf, nan) or fail (negative), so --tol refuses it before any
    # work; only polar and verify take a tolerance
    for raw in ("nan", "inf", "-1", "0"):
        assert main(["polar", "--in", weight_file, "--tol", raw]) == 2
        assert main(["verify", "--dim", "2", "--trials", "1", "--seed", "1",
                     "--tol", raw]) == 2
    err = capsys.readouterr().err
    assert err.count("error: --tol must be finite and positive") == 8
    assert main(["polar", "--in", weight_file, "--tol", "1e-9"]) == 0
    assert main(["example", "bounded", "--n", "9",
                 "--out", str(tmp_path / "e.txt")]) == 0
    assert "summary" in (tmp_path / "e.txt").read_text()


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
    # one SVD, of T, at every rank: U0 is checked from g = U0* U0 and
    # T's coimage V_r, its rank counted by the trace of g, and the
    # positivity of |T| is certified from the SVD of T, with no
    # factorization of U0 or |T|
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    full = gaussian_qmatrix(np.random.default_rng(11), 5)
    deficient = random_ops.rank_deficient(SplitMix64(11), 5, 3)
    for t, null_rank in ((full, 0), (deficient, 2)):
        inputs = record_svd_inputs(monkeypatch)
        report, f = polar_report(t, 1e-9)
        assert report.passed and f.null_rank == null_rank
        assert len(inputs) == 1 and np.array_equal(inputs[0], t.p)
        monkeypatch.undo()


def test_cmd_polar_takes_one_svd_per_op(tmp_path, monkeypatch):
    # the cost model of a qpolar polar op: every pinned input, full rank
    # and deficient, from 2 x 2 to n = 47, is one SVD
    out = tmp_path / "r.txt"
    for name, text in _pinned_polar_inputs():
        src = tmp_path / "in.qmat"
        src.write_text(text, encoding="utf-8")
        inputs = record_svd_inputs(monkeypatch)
        assert cmd_polar(str(src), 1e-9, str(out)) == 0, name
        assert len(inputs) == 1, name
        monkeypatch.undo()


def _planted_report(monkeypatch, u0_of):
    """polar_report of a rank-deficient T (n = 6, rank 4) whose U0 is
    u0_of(u_r, v, r), planes, u_r and v read from T's SVD."""
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    t = random_ops.rank_deficient(SplitMix64(17), 6, 4)
    f = polar_decompose(t)
    r = f.fac.rank
    u0 = QMatrix._adopt(u0_of(f.fac.u[:, :, :r].copy(), f.fac.v, r))
    planted = dataclasses.replace(f, u0=u0)
    monkeypatch.setattr(cli, "polar_decompose", lambda a: planted)
    report, _ = polar_report(t, 1e-9)
    return {c.name: c.passed for c in report.checks}, u0


def test_polar_report_fails_a_scaled_column_of_u0(monkeypatch):
    def scaled(u_r, v, r):
        u_r[:, :, 0] *= 1 + 1e-6
        return ckernel._qmul(u_r, ckernel._qadj(v[:, :, :r]))

    passed, _ = _planted_report(monkeypatch, scaled)
    assert not passed["u0_partial_isometry"]
    assert passed["null_rank_match"]


def test_polar_report_fails_a_u0_of_lower_rank(monkeypatch):
    # U0 from r - 1 columns is a partial isometry of rank r - 1: its
    # trace counts r - 1, and it kills v_r of N(T)-perp
    def short(u_r, v, r):
        return ckernel._qmul(u_r[:, :, :r - 1],
                             ckernel._qadj(v[:, :, :r - 1]))

    passed, _ = _planted_report(monkeypatch, short)
    assert not passed["null_rank_match"]
    assert not passed["u0_partial_isometry"]


def test_polar_report_fails_a_u0_whose_trace_alone_matches(monkeypatch):
    # U0 = U_r diag(sqrt(3/2), sqrt(1/2), 1, ...) V_r*: Re tr g is still r,
    # but g is no projection, so n u0_partial_isometry >= 1/5 and the trace
    # reads no rank: the report checks the rank rule's precondition itself
    def skewed(u_r, v, r):
        u_r[:, :, :2] *= np.sqrt([1.5, 0.5])
        return ckernel._qmul(u_r, ckernel._qadj(v[:, :, :r]))

    passed, u0 = _planted_report(monkeypatch, skewed)
    assert round(ckernel.frobenius(u0.p) ** 2) == 4
    assert not passed["null_rank_match"]
    assert not passed["u0_partial_isometry"]


def _trial_values(args) -> dict:
    return {c.name: c.value for c in _run_suite_trial(args)}


def test_polar_trial_counts_a_u0_of_lower_rank(monkeypatch):
    # the polar suite reads polar_report, which counts U0's rank from the
    # trace of g = U0* U0: a U0 from r - 1 columns of U_r is a mismatch
    real = cli.polar_decompose
    ranks = []

    def short(a):
        f = real(a)
        r = f.fac.rank
        ranks.append(r)
        u0 = ckernel._qmul(f.fac.u[:, :, :r - 1],
                           ckernel._qadj(f.fac.v[:, :, :r - 1]))
        return dataclasses.replace(f, u0=QMatrix._adopt(u0)) if r else f

    monkeypatch.setattr(cli, "polar_decompose", short)
    out = _trial_values(("polar", 4, 1e-9, 42, 0))
    assert ranks[0] >= 1
    assert out["polar.null_rank_match"] == 1.0


def test_polar_trial_counts_a_u0_whose_trace_alone_matches(monkeypatch):
    # U0 = U_r diag(sqrt(3/2), sqrt(1/2), 1, ...) V_r*: Re tr g is still r,
    # but g is no projection, so the trace reads no rank and the trial
    # counts a mismatch
    real = cli.polar_decompose
    ranks = []

    def skewed(a):
        f = real(a)
        r = f.fac.rank
        ranks.append(r)
        d = np.ones(r)
        d[:2] = np.sqrt([1.5, 0.5])[:r]
        u0 = ckernel._qmul(f.fac.u[:, :, :r] * d,
                           ckernel._qadj(f.fac.v[:, :, :r]))
        return dataclasses.replace(f, u0=QMatrix._adopt(u0))

    monkeypatch.setattr(cli, "polar_decompose", skewed)
    out = _trial_values(("polar", 4, 1e-9, 2, 2))
    assert ranks[0] >= 2
    assert out["polar.null_rank_match"] == 1.0


def test_polar_trial_reads_the_polar_report(monkeypatch):
    # the trial's seven report lines are polar_report's on the same T, at
    # DEFAULT_TOL whatever the suite's tol
    real = cli.polar_report
    seen = []

    def recorded(a, tol):
        seen.append((a, tol))
        return real(a, tol)

    monkeypatch.setattr(cli, "polar_report", recorded)
    for trial in range(4):
        seen.clear()
        out = [(c.name, c.value, c.threshold)
               for c in _run_suite_trial(("polar", 4, 1e-3, 42, trial))]
        [(t, tol)] = seen
        assert tol == cli.DEFAULT_TOL == 1e-9
        report, _ = real(t, 1e-9)
        assert out[:7] == [("polar." + c.name, c.value, c.threshold)
                           for c in report.checks]
        assert [name for name, _, _ in out[7:]] == [
            "polar.null_annihilation_rel", "polar.structure_self_adjoint",
            "polar.structure_anti_self_adjoint", "polar.structure_normal",
            "polar.structure_normal_commute"]


def test_polar_trial_fails_a_scaled_column_of_u0(monkeypatch):
    real = cli.polar_decompose
    ranks = []

    def scaled(a):
        f = real(a)
        ranks.append(f.fac.rank)
        p = f.u0.p.copy()
        p[:, :, 0] *= 1 + 1e-6
        return dataclasses.replace(f, u0=QMatrix._adopt(p))

    monkeypatch.setattr(cli, "polar_decompose", scaled)
    checks = {c.name: c for c in _run_suite_trial(("polar", 4, 1e-9, 42, 0))}
    assert ranks[0] >= 1
    assert not checks["polar.u0_partial_isometry"].passed


COUNT_LINES = {"chi.null_dim_mismatches", "chi.class_disagreements",
               "polar.null_rank_match", "dichotomy.verdict_mismatches",
               "dichotomy.degenerate_perturbations",
               "dichotomy.surviving_perturbations"}


def test_every_trial_states_the_same_checks():
    # each check is gated where its value is measured: every trial of a
    # suite emits the same (name, gate) pairs in the same order, a gate of
    # 0 marks exactly the count lines, and the names are the report's
    names = []
    for suite in cli._SUITES:
        pairs = {tuple((c.name, c.threshold) for c in
                       _run_suite_trial((suite, 4, 1e-9, 11, k)))
                 for k in range(25)}
        assert len(pairs) == 1, suite
        [pairs] = pairs
        assert {name for name, gate in pairs if gate == 0} == (
            {name for name in COUNT_LINES if name.startswith(suite + ".")})
        names += sorted(name for name, _ in pairs)
    want = (DATA / "verify_d4_t25_s11.txt").read_text(encoding="utf-8")
    assert names == [line.split()[0] for line in want.splitlines()[1:-1]]


def test_run_suite_fails_a_nan_residual(monkeypatch):
    # a NaN entry in trial 1's U0 makes its reconstruction_rel NaN: the
    # residual line takes its worst value, NaN included, and FAILs
    real_trial, real_decompose = cli._run_suite_trial, cli.polar_decompose
    plant = []

    def trial(args):
        plant[:] = [args[4] == 1]
        return real_trial(args)

    def decompose(a):
        f = real_decompose(a)
        if plant and plant.pop():  # T of trial 1, not its class draws
            p = f.u0.p.copy()
            p[0, 0, 0] = math.nan
            return dataclasses.replace(f, u0=QMatrix._adopt(p))
        return f

    monkeypatch.setattr(cli, "_run_suite_trial", trial)
    monkeypatch.setattr(cli, "polar_decompose", decompose)
    checks = {c.name: c
              for c in run_suite("polar", SuiteConfig(4, 3, 42, 1e-9))}
    line = checks["polar.reconstruction_rel"]
    assert math.isnan(line.value) and not line.passed
    assert line.format().startswith("polar.reconstruction_rel nan ")


def test_run_suite_fails_a_nan_count(monkeypatch):
    # a count line adds up its trials, so a NaN count is NaN and FAILs
    real = cli._run_suite_trial

    def planted(args):
        return [dataclasses.replace(c, value=math.nan)
                if args[4] == 1 and c.name == "polar.null_rank_match" else c
                for c in real(args)]

    monkeypatch.setattr(cli, "_run_suite_trial", planted)
    checks = run_suite("polar", SuiteConfig(4, 3, 42, 1e-9))
    assert [c.name for c in checks if not c.passed] == [
        "polar.null_rank_match"]
    assert all(math.isnan(c.value) for c in checks if not c.passed)


def test_battery_factors_no_derived_partial_isometry(monkeypatch):
    # the polar suite counts U0's rank from g = U0* U0 and perturb_polar
    # checks V from V* V, so neither is factored: per trial the polar
    # suite takes 5 SVDs and the dichotomy suite 1
    svds, counts = record_svd_inputs(monkeypatch), {}

    def counted(suite, cfg, jobs=1):
        before = len(svds)
        checks = run_suite(suite, cfg, jobs)
        counts[suite] = len(svds) - before
        return checks

    monkeypatch.setattr(cli, "run_suite", counted)
    assert cmd_verify(SuiteConfig(dim=4, trials=5, seed=42, tol=1e-9)).passed
    assert counts == {"chi": 75, "sqrt": 25, "polar": 25, "dichotomy": 5,
                      "transform": 30}


def test_polar_report_ties_u0_to_the_coimage_of_t(monkeypatch):
    # U0 = U_r W*, W an orthonormal basis of another r-dimensional space
    # (v_1 turned towards v_{r+1} of N(T) by 1e-3): a partial isometry of
    # rank r, which a check on U0's own coimage passes, but its initial
    # space is not N(T)-perp
    def turned(u_r, v, r):
        w = v[:, :, :r].copy()
        c, s = math.cos(1e-3), math.sin(1e-3)
        w[:, :, 0] = c * v[:, :, 0] + s * v[:, :, r]
        return ckernel._qmul(u_r, ckernel._qadj(w))

    passed, u0 = _planted_report(monkeypatch, turned)
    assert not passed["u0_partial_isometry"]
    assert passed["null_rank_match"]
    assert classify(u0).partial_isometry


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
        "error: the Jacobi SVD of T did not converge")
    assert not out.exists()


def test_cmd_polar_block_violation_after_factoring_propagates(
        tmp_path, monkeypatch, capsys):
    # no exit code maps a block-structure violation: one raised after
    # factoring, here from the check of U0, is a fault and keeps its
    # traceback
    def planted(*args, **kwargs):
        raise BlockStructureViolation("planted")

    path = tmp_path / "eye.qmat"
    path.write_text(emit_qmat(QMatrix.identity(3)))
    monkeypatch.setattr(ckernel, "partial_isometry_residual", planted)
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


# the lines of either example report, in order
EXAMPLE_LINES = ["u0", "modulus", "null_space_span", "corange_span",
                 "verdict_nonunique", "second_factorization",
                 "perturbed_isometry", "transform_coincides",
                 "contraction_excess", "polar_transport"]


def _check_names(body):
    return [line.split()[0] for line in body.splitlines()[1:-1]]


def test_cmd_example_bounded(tmp_path):
    out = tmp_path / "ex.txt"
    assert cmd_example("bounded", 10, str(out)) == 0
    body = out.read_text()
    assert _check_names(body) == EXAMPLE_LINES
    assert "FAIL" not in body


def test_cmd_example_unbounded(tmp_path):
    # the unbounded variant checks U0, |S|, the spans, the verdict and the
    # second factorization as well as the transform lines
    out = tmp_path / "ex.txt"
    assert cmd_example("unbounded", 10, str(out)) == 0
    body = out.read_text()
    assert _check_names(body) == EXAMPLE_LINES
    assert "FAIL" not in body


@pytest.mark.parametrize("n", [7, 9, 64])
@pytest.mark.parametrize("which", cli.EXAMPLES)
def test_example_variants_pass(which, n):
    # n = 7 is the smallest truncation, with two entries in the k >= 6 block
    report = example_report(which, n)
    assert [c.name for c in report.checks] == EXAMPLE_LINES
    assert report.passed, report.format()


def _failed(which):
    return {c.name for c in example_report(which, 9).checks if not c.passed}


def test_example_planted_u0_column_fails_u0(monkeypatch):
    real = cli.polar_decompose

    def planted(t):
        f = real(t)
        p = f.u0.p.copy()
        p[:, :, 0] *= 1 + 1e-6
        return dataclasses.replace(f, u0=QMatrix._adopt(p))

    monkeypatch.setattr(cli, "polar_decompose", planted)
    for which in cli.EXAMPLES:
        assert "u0" in _failed(which)


def test_example_planted_first_factor_fails_second_factor_line(monkeypatch):
    # U0 itself satisfies U |T| = T, so only the closed-form permutation
    # tells it from U0 + V P
    monkeypatch.setattr(cli, "perturb_polar", lambda f, v: f.u0.copy())
    for which in cli.EXAMPLES:
        assert _failed(which) == {"perturbed_isometry"}


def test_example_planted_swap_fails_second_factor_line(monkeypatch):
    # another admissible V (e3 -> e3, e4 -> e1, e5 -> e5) gives another
    # second factorization: the report's closed form is its own entry list
    monkeypatch.setattr(
        transform, "null_swap_perturbation",
        lambda n: transform.partial_permutation(
            n, [(3, 3, 1.0), (4, 1, 1.0), (5, 5, 1.0)]))
    for which in cli.EXAMPLES:
        assert _failed(which) == {"perturbed_isometry"}


def test_example_planted_undamped_transform_fails(monkeypatch):
    monkeypatch.setattr(transform, "z_transform", lambda t: t)
    assert _failed("unbounded") == {"transform_coincides",
                                    "contraction_excess"}
    # the weight matrix is a contraction already
    assert _failed("bounded") == {"transform_coincides"}


def test_example_planted_verdict_fails(monkeypatch):
    real = cli.polar_decompose

    def planted(t):
        f = real(t)
        return dataclasses.replace(f, unique=not f.unique)

    monkeypatch.setattr(cli, "polar_decompose", planted)
    for which in cli.EXAMPLES:
        assert _failed(which) == {"verdict_nonunique"}


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
