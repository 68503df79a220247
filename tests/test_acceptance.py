"""Acceptance suite: closed-form example reproduction plus the full
randomized property batteries, each at its pinned tolerance. One
pass/fail line prints per criterion (run with -s to see them live).
"""

import math
import time

import pytest

from qpolar import (QMatrix, null_range_bases, null_swap_perturbation,
                    perturb_polar, polar_decompose, projector_onto,
                    truncated_example, weight_matrix, z_transform)
from qpolar.cli import SuiteConfig, cmd_verify, run_suite

SEED = 42


def _report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _axes_projector(n, coords):
    axes = [k - 1 for k in coords]
    return projector_onto(QMatrix(*QMatrix.identity(n).p[:, :, axes]))


def test_criterion_1_bounded_example():
    t0 = time.perf_counter()
    n = 10
    a = weight_matrix(n)
    f = polar_decompose(a)

    expected = [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0, 0.0, 0.0]
    expected += [k / math.sqrt(k * k + 1) for k in range(6, n + 1)]
    mod_err = max(abs(f.abs_t.entry(k, k).w - expected[k]) for k in range(n))
    mod_err = max(mod_err,
                  (f.abs_t - QMatrix.diag(expected)).frobenius_norm())

    null_basis, _ = null_range_bases(a)
    corange_basis = null_range_bases(a.adjoint())[0]
    null_err = (projector_onto(null_basis)
                - _axes_projector(n, (3, 4, 5))).frobenius_norm()
    corange_err = (projector_onto(corange_basis)
                   - _axes_projector(n, (1, 3, 5))).frobenius_norm()

    u = perturb_polar(f, null_swap_perturbation(n))
    recon_err = (u @ f.abs_t - a).frobenius_norm()
    e3, e4 = QMatrix.identity(n).column(2), QMatrix.identity(n).column(3)
    swap_err = (u @ e4 - e3).frobenius_norm()
    kill_err = (f.u0 @ e4).frobenius_norm()

    elapsed = time.perf_counter() - t0
    ok = (mod_err <= 1e-10 and null_err <= 1e-10 and corange_err <= 1e-10
          and recon_err <= 1e-10 and swap_err <= 1e-10 and kill_err <= 1e-10
          and elapsed < 1.0)
    _report(1, "bounded example N=10", ok)


def test_criterion_2_unbounded_example():
    t0 = time.perf_counter()
    s, z = truncated_example(10)
    a = weight_matrix(10)
    coincide = (z - a).frobenius_norm()
    transport = (polar_decompose(z).u0
                 - polar_decompose(s).u0).frobenius_norm()
    elapsed = time.perf_counter() - t0
    ok = coincide <= 1e-10 and transport <= 1e-8 and elapsed < 1.0
    _report(2, "unbounded example N=10", ok)


def test_criterion_3_chi_suite():
    t0 = time.perf_counter()
    cfg = SuiteConfig(dim=8, trials=200, seed=SEED, tol=1e-9)
    checks = run_suite("chi", cfg)
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and elapsed < 30.0
    for c in checks:
        if not c.passed:
            print(c.format())
    _report(3, f"chi-embedding suite ({elapsed:.1f}s)", ok)


def test_criterion_4_sqrt_uniqueness():
    cfg = SuiteConfig(dim=8, trials=200, seed=SEED, tol=1e-9)
    checks = run_suite("sqrt", cfg)
    ok = all(c.passed for c in checks)
    for c in checks:
        if not c.passed:
            print(c.format())
    _report(4, "square-root uniqueness", ok)


def test_criterion_5_polar_suite():
    cfg = SuiteConfig(dim=16, trials=300, seed=SEED, tol=1e-9)
    checks = run_suite("polar", cfg)
    ok = all(c.passed for c in checks)
    for c in checks:
        if not c.passed:
            print(c.format())
    _report(5, "polar suite dim<=16", ok)


def test_criterion_6_uniqueness_dichotomy():
    cfg = SuiteConfig(dim=8, trials=100, seed=SEED, tol=1e-9)
    checks = run_suite("dichotomy", cfg)
    ok = all(c.passed for c in checks)
    for c in checks:
        if not c.passed:
            print(c.format())
    _report(6, "uniqueness dichotomy", ok)


def test_criterion_7_transform_roundtrip():
    cfg = SuiteConfig(dim=8, trials=200, seed=SEED, tol=1e-9)
    checks = run_suite("transform", cfg)
    ok = all(c.passed for c in checks)
    for c in checks:
        if not c.passed:
            print(c.format())
    _report(7, "bounded-transform round trip", ok)


def test_criterion_8_determinism():
    cfg = SuiteConfig(dim=3, trials=6, seed=SEED, tol=1e-9)
    serial_a = cmd_verify(cfg).format()
    serial_b = cmd_verify(cfg).format()
    parallel = cmd_verify(cfg, jobs=2).format()
    ok = (serial_a == serial_b) and (serial_a == parallel)
    _report(8, "deterministic reports", ok)
