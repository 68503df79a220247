import math

import numpy as np
import pytest

from helpers import record_svd_inputs
from qpolar import QMatrix, emit_qmat, weight_matrix
from qpolar.cli import (SuiteConfig, cmd_example, cmd_polar, cmd_verify,
                        default_tol, example_report, main, polar_report,
                        run_suite)


@pytest.fixture
def weight_file(tmp_path):
    path = tmp_path / "weight10.qmat"
    path.write_text(emit_qmat(weight_matrix(10)))
    return str(path)


def test_suite_config_validation():
    SuiteConfig(dim=1, trials=1, seed=0, tol=1e-9)
    with pytest.raises(ValueError):
        SuiteConfig(dim=0, trials=1, seed=0, tol=1e-9)
    with pytest.raises(ValueError):
        SuiteConfig(dim=1, trials=0, seed=0, tol=1e-9)
    with pytest.raises(ValueError):
        SuiteConfig(dim=1, trials=1, seed=-1, tol=1e-9)
    with pytest.raises(ValueError):
        SuiteConfig(dim=1, trials=1, seed=0, tol=0.0)


def test_default_tol_env(monkeypatch):
    monkeypatch.delenv("QPOLAR_TOL", raising=False)
    assert default_tol() == 1e-9
    monkeypatch.setenv("QPOLAR_TOL", "1e-7")
    assert default_tol() == 1e-7
    monkeypatch.setenv("QPOLAR_TOL", "zero")
    with pytest.raises(ValueError):
        default_tol()


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


def test_cmd_polar_parse_error(tmp_path):
    path = tmp_path / "garbage.qmat"
    path.write_text("QMAT 2 2\n1 2 3\n")
    assert cmd_polar(str(path), 1e-9, None) == 2
    assert cmd_polar(str(tmp_path / "missing.qmat"), 1e-9, None) == 2
    rect = tmp_path / "rect.qmat"
    rect.write_text("QMAT 1 2\n1 0 0 0 0 0 0 0\n")
    assert cmd_polar(str(rect), 1e-9, None) == 2
    for bad in ("nan", "inf", "-inf", "1e400"):
        path = tmp_path / f"{bad}.qmat"
        path.write_text(f"QMAT 2 2\n1 0 0 0 0 0 0 0\n0 0 0 0 {bad} 0 0 0\n")
        assert cmd_polar(str(path), 1e-9, None) == 2
        assert main(["polar", "--in", str(path)]) == 2


def test_cmd_polar_overflow_exit(tmp_path, capsys):
    # finite entries near 1e300 overflow the Gram matrix of the block image
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    path = tmp_path / "huge.qmat"
    path.write_text(emit_qmat(random_ops.rand_qmatrix(SplitMix64(3), 4)
                              * 2.0 ** 996))
    out = tmp_path / "r.txt"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cmd_polar(str(path), 1e-9, str(out)) == 3
    assert "error: operator overflows when factored" in capsys.readouterr().err
    assert not out.exists()


def test_polar_report_factors_each_operator_once(monkeypatch):
    # one SVD each for T, U0 and |T|: the rank of T comes from the polar
    # factorization and the rank of U0 from its classification
    from qpolar import random_ops
    from qpolar.rng import SplitMix64
    t = random_ops.rank_deficient(SplitMix64(11), 5, 3)
    inputs = record_svd_inputs(monkeypatch)
    report, f = polar_report(t, 1e-9)
    assert report.passed and f.null_rank == 2
    assert len(inputs) == 3
    assert len({m.tobytes() for m in inputs}) == 3


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


def test_cmd_verify_deterministic_and_parallel():
    cfg = SuiteConfig(dim=3, trials=4, seed=7, tol=1e-9)
    serial_a = cmd_verify(cfg).format()
    serial_b = cmd_verify(cfg).format()
    parallel = cmd_verify(cfg, jobs=2).format()
    assert serial_a == serial_b == parallel


def test_main_verify_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    code = main(["verify", "--dim", "2", "--trials", "2", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    assert "summary" in out.read_text()
    # invalid config is rejected before any work happens
    assert main(["verify", "--dim", "2", "--trials", "0", "--seed", "5"]) == 2


def test_main_polar_and_example(tmp_path, weight_file):
    out = tmp_path / "p.txt"
    assert main(["polar", "--in", weight_file, "--out", str(out)]) == 0
    assert "unique false" in out.read_text()
    assert main(["example", "bounded", "--n", "10",
                 "--out", str(tmp_path / "e.txt")]) == 0
