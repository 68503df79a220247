"""Command-line front end: matrix file polar reports, closed-form example
reproduction, and randomized verification suites.

Reports are line-oriented text. Every check emits one line in the grammar
"name value threshold PASS|FAIL"; value is a residual (relative where the
name says _rel) or a violation count. Runs are deterministic for a given
seed: trial k of a suite draws from its own generator stream, so serial
and parallel execution produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ckernel, random_ops, rng, transform
from .polar import (BadPerturbation, canonical_perturbation, perturb_polar,
                    polar_decompose)
from .qlinalg import (QMatrix, QVector, classify, operator_norm,
                      projector_onto, quaternionic_rank, _svd_bases)
from .qmatio import QMatFormatError, emit_qmat, parse_qmat
from .slices import chi, chi_pullback, equivalence_suite

DEFAULT_TOL = 1e-9
ENV_TOL = "QPOLAR_TOL"


def default_tol() -> float:
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return DEFAULT_TOL
    try:
        val = float(raw)
    except ValueError:
        raise ValueError(f"{ENV_TOL}={raw!r} is not a number") from None
    if val <= 0.0:
        raise ValueError(f"{ENV_TOL} must be positive")
    return val


@dataclass(frozen=True)
class SuiteConfig:
    dim: int
    trials: int
    seed: int
    tol: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name} {self.value:.6e} {self.threshold:.6e} {status}"


@dataclass
class Report:
    header: list
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def counts(self) -> tuple[int, int]:
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks) - good

    def format(self) -> str:
        lines = [f"# {h}" for h in self.header]
        lines.extend(c.format() for c in self.checks)
        good, bad = self.counts()
        lines.append(f"summary {len(self.checks)} checks {good} passed {bad} failed")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verification battery
#
# Each suite maps a per-trial generator to (name, value) samples; values
# aggregate across trials by max (residuals) or sum (violation counts).
# ---------------------------------------------------------------------------

_CHECKS = {
    "chi.add_residual": (1e-11, "max"),
    "chi.scalar_residual": (1e-11, "max"),
    "chi.mul_residual": (1e-11, "max"),
    "chi.adjoint_residual": (1e-11, "max"),
    "chi.norm_equality": (1e-9, "max"),
    "chi.pullback_roundtrip": (1e-13, "max"),
    "chi.null_dim_mismatches": (0.0, "sum"),
    "chi.class_disagreements": (0.0, "sum"),
    "sqrt.spectral_square_rel": (1e-8, "max"),
    "sqrt.composite_agreement": (1e-7, "max"),
    "sqrt.strict_agreement": (1e-7, "max"),
    "polar.reconstruction_rel": (1e-9, "max"),
    "polar.identity_isometry_rel": (1e-9, "max"),
    "polar.identity_adjoint_rel": (1e-9, "max"),
    "polar.identity_range_rel": (1e-9, "max"),
    "polar.null_rank_mismatches": (0.0, "sum"),
    "polar.null_annihilation_rel": (1e-9, "max"),
    "polar.structure_self_adjoint": (1e-8, "max"),
    "polar.structure_anti_self_adjoint": (1e-8, "max"),
    "polar.structure_normal": (1e-8, "max"),
    "polar.structure_normal_commute": (1e-8, "max"),
    "dichotomy.verdict_mismatches": (0.0, "sum"),
    "dichotomy.second_factorization_rel": (1e-9, "max"),
    "dichotomy.degenerate_perturbations": (0.0, "sum"),
    "dichotomy.surviving_perturbations": (0.0, "sum"),
    "transform.roundtrip_rel": (1e-7, "max"),
    "transform.contraction_excess": (1e-10, "max"),
    "transform.modulus_identity": (1e-8, "max"),
    "transform.polar_transport": (1e-8, "max"),
    "transform.adjoint_identity": (1e-9, "max"),
    "transform.normal_preserved": (1e-9, "max"),
}


def _chi_trial(dim: int, tol: float, rr, trial: int) -> list:
    n = 1 + rr.randint(dim)
    a = random_ops.rand_qmatrix(rr, n)
    b = random_ops.rand_qmatrix(rr, n)
    ca, cb = chi(a), chi(b)
    lam = complex(rr.uniform(-1, 1), rr.uniform(-1, 1))
    lam_op = QMatrix(lam * np.eye(n, dtype=complex))
    out = [
        ("chi.add_residual", ckernel.frobenius(chi(a + b) - (ca + cb))),
        ("chi.scalar_residual",
         ckernel.frobenius(chi(lam_op @ a) - chi(lam_op) @ ca)),
        ("chi.mul_residual", ckernel.frobenius(chi(a @ b) - ca @ cb)),
        ("chi.adjoint_residual",
         ckernel.frobenius(chi(a.adjoint()) - ca.conj().T)),
        ("chi.pullback_roundtrip",
         (chi_pullback(ca) - a).frobenius_norm()),
    ]
    out.append(("chi.norm_equality",
                abs(operator_norm(a) - ckernel.Factorization(ca).sigma_max)))
    # planted-rank draw: chi(rd) has twice the null dimension of rd
    rank = rr.randint(n + 1)
    rd = random_ops.rank_deficient(rr, n, rank)
    null_c = 2 * n - ckernel.Factorization(chi(rd)).rank
    null_h = n - quaternionic_rank(rd)
    out.append(("chi.null_dim_mismatches",
                0.0 if null_c == 2 * null_h else 1.0))
    disagreements = 0
    for op in _class_constructions(rr, n):
        rep = equivalence_suite(op, max(tol, ckernel.DEFAULT_CLASS_TOL))
        disagreements += len(rep.disagreements())
    out.append(("chi.class_disagreements", float(disagreements)))
    return out


def _class_constructions(rr, n: int) -> list:
    return [
        random_ops.rand_qmatrix(rr, n),
        random_ops.hermitian(rr, n),
        random_ops.anti_self_adjoint(rr, n),
        random_ops.psd(rr, n),
        random_ops.unitary(rr, n),
        random_ops.normal(rr, n),
        random_ops.projection(rr, n),
        random_ops.partial_isometry(rr, n),
    ]


def _sqrt_trial(dim: int, tol: float, rr, trial: int) -> list:
    from .polar import (sqrt_positive_spectral, sqrt_positive_composite,
                        sqrt_strictly_positive)
    n = 1 + rr.randint(dim)
    p = random_ops.psd(rr, n)
    scale = max(1.0, p.frobenius_norm())
    r_spec = sqrt_positive_spectral(p)
    r_composite = sqrt_positive_composite(p)
    out = [
        ("sqrt.spectral_square_rel",
         (r_spec @ r_spec - p).frobenius_norm() / scale),
        ("sqrt.composite_agreement", (r_composite - r_spec).frobenius_norm()),
    ]
    pd = p + QMatrix.identity(n)
    r_spec_pd = sqrt_positive_spectral(pd)
    r_strict = sqrt_strictly_positive(pd, 1.0)
    out.append(("sqrt.strict_agreement",
                (r_strict - r_spec_pd).frobenius_norm()))
    return out


def _polar_identities(t: QMatrix, f) -> list:
    """(name, value) of the four polar identities, relative to ||T||."""
    scale = max(1.0, t.frobenius_norm())
    u0, p = f.u0, f.abs_t
    u0s = u0.adjoint()
    return [
        ("reconstruction_rel", (u0 @ p - t).frobenius_norm() / scale),
        ("identity_isometry_rel", (u0s @ u0 @ p - p).frobenius_norm() / scale),
        ("identity_adjoint_rel", (u0s @ t - p).frobenius_norm() / scale),
        ("identity_range_rel", (u0 @ u0s @ t - t).frobenius_norm() / scale),
    ]


def _polar_trial(dim: int, tol: float, rr, trial: int) -> list:
    n = 1 + rr.randint(dim)
    rank = rr.randint(n + 1)
    t = (random_ops.rand_qmatrix(rr, n) if rank == n
         else random_ops.rank_deficient(rr, n, rank))
    f = polar_decompose(t)
    u0, scale = f.u0, max(1.0, t.frobenius_norm())
    out = [("polar." + name, value) for name, value in _polar_identities(t, f)]
    out.append(("polar.null_rank_mismatches",
                0.0 if quaternionic_rank(u0) == n - f.null_rank else 1.0))
    null_basis = _svd_bases(f.fac, f.null_rank)[0]
    annihilation = max((u0.matvec(v).norm() for v in null_basis), default=0.0)
    out.append(("polar.null_annihilation_rel", annihilation / scale))
    # structure transfer on class-constructed draws
    h = random_ops.hermitian(rr, n)
    uh = polar_decompose(h).u0
    out.append(("polar.structure_self_adjoint",
                (uh - uh.adjoint()).frobenius_norm()
                / max(1.0, h.frobenius_norm())))
    w = random_ops.anti_self_adjoint(rr, n)
    uw = polar_decompose(w).u0
    out.append(("polar.structure_anti_self_adjoint",
                (uw + uw.adjoint()).frobenius_norm()
                / max(1.0, w.frobenius_norm())))
    nm = random_ops.normal(rr, n)
    fn = polar_decompose(nm)
    un = fn.u0
    nscale = max(1.0, nm.frobenius_norm())
    out.append(("polar.structure_normal",
                (un @ un.adjoint() - un.adjoint() @ un).frobenius_norm()
                / nscale))
    out.append(("polar.structure_normal_commute",
                (un @ fn.abs_t - fn.abs_t @ un).frobenius_norm() / nscale))
    return out


def _dichotomy_trial(dim: int, tol: float, rr, trial: int) -> list:
    n = 1 + rr.randint(dim)
    # plant full rank on a fixed cadence so both verdicts occur
    rank = n if trial % 5 == 0 else rr.randint(n + 1)
    t = (random_ops.rand_qmatrix(rr, n) if rank == n
         else random_ops.rank_deficient(rr, n, rank))
    f = polar_decompose(t)
    want_unique = rank == n
    out = [("dichotomy.verdict_mismatches",
            0.0 if f.unique == want_unique else 1.0)]
    scale = max(1.0, t.frobenius_norm())
    if not f.unique:
        u = perturb_polar(f, canonical_perturbation(f))
        recon = (u @ f.abs_t - t).frobenius_norm() / scale
        out.append(("dichotomy.second_factorization_rel", recon))
        distinct = (u - f.u0).frobenius_norm()
        out.append(("dichotomy.degenerate_perturbations",
                    0.0 if distinct > 0.5 else 1.0))
        out.append(("dichotomy.surviving_perturbations", 0.0))
    else:
        survivors = 0
        for _ in range(50):
            v_src = random_ops.rand_qvector(rr, n)
            v_dst = random_ops.rand_qvector(rr, n)
            v_src = v_src * (1.0 / v_src.norm())
            v_dst = v_dst * (1.0 / v_dst.norm())
            v = (QMatrix.from_columns([v_dst])
                 @ QMatrix.from_columns([v_src]).adjoint())
            try:
                perturb_polar(f, v)
                survivors += 1
            except BadPerturbation:
                pass
        out.append(("dichotomy.second_factorization_rel", 0.0))
        out.append(("dichotomy.degenerate_perturbations", 0.0))
        out.append(("dichotomy.surviving_perturbations", float(survivors)))
    return out


def _transform_trial(dim: int, tol: float, rr, trial: int) -> list:
    n = 1 + rr.randint(dim)
    t = random_ops.bounded_norm(rr, n, 10.0)
    scale = max(1.0, t.frobenius_norm())
    z = transform.z_transform(t)
    back = transform.z_inverse(z)
    fz, ft = polar_decompose(z), polar_decompose(t)
    out = [
        ("transform.roundtrip_rel", (back - t).frobenius_norm() / scale),
        ("transform.contraction_excess", max(0.0, fz.fac.sigma_max - 1.0)),
        ("transform.adjoint_identity",
         (transform.z_transform(t.adjoint()) - z.adjoint()).frobenius_norm()),
        ("transform.modulus_identity",
         (fz.abs_t - ft.abs_t
          @ transform.inv_sqrt_shifted_gram(t)).frobenius_norm()),
        ("transform.polar_transport", (fz.u0 - ft.u0).frobenius_norm()),
    ]
    nm = random_ops.normal(rr, n)
    zn = transform.z_transform(nm)
    out.append(("transform.normal_preserved",
                (zn @ zn.adjoint() - zn.adjoint() @ zn).frobenius_norm()
                / max(1.0, nm.frobenius_norm())))
    return out


# suite name -> (stream tag, trial function), in battery order; the tag
# seeds the suite's trial streams, so changing it changes every report
_SUITES = {
    "chi": (1, _chi_trial),
    "sqrt": (2, _sqrt_trial),
    "polar": (3, _polar_trial),
    "dichotomy": (4, _dichotomy_trial),
    "transform": (5, _transform_trial),
}


def _run_suite_trial(args) -> list:
    suite, dim, tol, seed, trial = args
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    tag, run_trial = _SUITES[suite]
    return run_trial(dim, tol, rng.stream(rng.mix64(seed ^ tag), trial), trial)


def run_suite(suite: str, cfg: SuiteConfig, jobs: int = 1) -> list:
    """Run one named suite and aggregate per-check values across trials."""
    args = [(suite, cfg.dim, cfg.tol, cfg.seed, k) for k in range(cfg.trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            samples = list(pool.map(_run_suite_trial, args, chunksize=8))
    else:
        samples = [_run_suite_trial(a) for a in args]
    totals: dict[str, float] = {}
    for trial_out in samples:
        for name, value in trial_out:
            threshold, kind = _CHECKS[name]
            if kind == "sum":
                totals[name] = totals.get(name, 0.0) + value
            else:
                totals[name] = max(totals.get(name, 0.0), value)
    return [CheckResult(name, totals[name], _CHECKS[name][0])
            for name in sorted(totals)]


def cmd_verify(cfg: SuiteConfig, jobs: int = 1) -> Report:
    """Run the whole battery and assemble the report."""
    checks = []
    for suite in _SUITES:
        checks.extend(run_suite(suite, cfg, jobs))
    header = [f"qpolar verify dim={cfg.dim} trials={cfg.trials} "
              f"seed={cfg.seed} tol={cfg.tol:.6e}"]
    return Report(header, checks)


# ---------------------------------------------------------------------------
# polar report for a matrix file
# ---------------------------------------------------------------------------

def polar_report(a: QMatrix, tol: float):
    f = polar_decompose(a)
    u0_class = classify(f.u0)
    checks = [CheckResult(name, value, tol)
              for name, value in _polar_identities(a, f)]
    checks += [
        CheckResult("u0_partial_isometry",
                    u0_class.residuals["partial_isometry"], tol),
        # relative like the positivity flag: the residual is the rounding
        # of an eigensolve of |T| below full rank, O(eps sigma_max)
        CheckResult("abs_positive_rel",
                    f.abs_positivity()[0] / max(1.0, f.fac.sigma_max), tol),
        CheckResult("null_rank_match",
                    0.0 if u0_class.rank == a.shape[0] - f.null_rank
                    else 1.0, 0.0),
    ]
    header = [f"qpolar polar tol={tol:.6e}",
              f"null_rank {f.null_rank}",
              f"corange_rank {f.corange_rank}",
              f"unique {'true' if f.unique else 'false'}"]
    return Report(header, checks), f


def cmd_polar(in_path: str, tol: float, out_path: str | None = None) -> int:
    try:
        with open(in_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {in_path}: {exc}", file=sys.stderr)
        return 2
    try:
        a = parse_qmat(text)
    except QMatFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if a.shape[0] != a.shape[1]:
        print(f"error: operator must be square, got {a.shape}",
              file=sys.stderr)
        return 2
    try:
        report, factors = polar_report(a, tol)
    except ckernel.NonFiniteInput as exc:
        # parse_qmat admits only finite entries, so this is an overflow
        print(f"error: operator overflows when factored: {exc}",
              file=sys.stderr)
        return 3
    except ckernel.NoConvergence as exc:
        print(f"error: a Jacobi solve (an SVD or an eigensolve) did not "
              f"converge: {exc}", file=sys.stderr)
        return 3
    body = report.format()
    body += "# U0\n" + emit_qmat(factors.u0)
    body += "# |T|\n" + emit_qmat(factors.abs_t)
    _write_out(body, out_path)
    return 0 if report.passed else 3


def _write_out(body: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


# ---------------------------------------------------------------------------
# closed-form example reproduction
# ---------------------------------------------------------------------------

def _basis(n: int, k: int) -> QVector:
    return QVector.basis(n, k - 1)


# residual tolerance of the example reports
EXAMPLE_TOL = 1e-10


def example_report(which: str, n: int) -> Report:
    """Reproduce the diagonal-weight operator family at truncation n.

    `bounded` drives the contracted matrix through the polar engine and
    exhibits the explicit second factorization; `unbounded` checks that
    the bounded transform of the weight operator lands on the contracted
    matrix and transports the polar isometry unchanged.
    """
    if which not in ("bounded", "unbounded"):
        raise ValueError(f"unknown example {which!r}")
    if n < 7:
        raise transform.DimensionTooSmall("need dimension at least 7")
    a = transform.weight_matrix(n)
    checks = []
    if which == "bounded":
        f = polar_decompose(a)
        expected_diag = [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0, 0.0, 0.0]
        expected_diag += [k / math.sqrt(k * k + 1) for k in range(6, n + 1)]
        mod = f.abs_t
        diag_err = max(abs(mod.entry(k, k).w - expected_diag[k])
                       for k in range(n))
        off = mod - QMatrix.diag(expected_diag)
        checks.append(CheckResult("modulus_diagonal", diag_err, EXAMPLE_TOL))
        checks.append(CheckResult("modulus_off_diagonal",
                                  off.frobenius_norm(), EXAMPLE_TOL))
        u0 = f.u0
        act = max(
            (u0.matvec(_basis(n, 1)) - _basis(n, 2)).norm(),
            (u0.matvec(_basis(n, 2)) - _basis(n, 4)).norm(),
            u0.matvec(_basis(n, 3)).norm(),
            u0.matvec(_basis(n, 4)).norm(),
            u0.matvec(_basis(n, 5)).norm(),
            max((u0.matvec(_basis(n, k)) - _basis(n, k)).norm()
                for k in range(6, n + 1)),
        )
        checks.append(CheckResult("isometry_action", act, EXAMPLE_TOL))
        null_basis, _, corange_basis = _svd_bases(f.fac, f.null_rank)
        checks.append(CheckResult(
            "null_space_span",
            _span_residual(null_basis, [3, 4, 5], n), EXAMPLE_TOL))
        checks.append(CheckResult(
            "corange_span",
            _span_residual(corange_basis, [1, 3, 5], n), EXAMPLE_TOL))
        v = transform.null_swap_perturbation(n)
        u = perturb_polar(f, v)
        checks.append(CheckResult(
            "second_factorization",
            (u @ f.abs_t - a).frobenius_norm(), EXAMPLE_TOL))
        checks.append(CheckResult(
            "perturbed_e4_to_e3",
            (u.matvec(_basis(n, 4)) - _basis(n, 3)).norm(), EXAMPLE_TOL))
        checks.append(CheckResult(
            "original_kills_e4", u0.matvec(_basis(n, 4)).norm(), EXAMPLE_TOL))
        checks.append(CheckResult(
            "verdict_nonunique", 0.0 if not f.unique else 1.0, 0.0))
    else:
        op, z = transform.truncated_example(n)
        coincide = (z - a).frobenius_norm()
        checks.append(
            CheckResult("transform_coincides", coincide, EXAMPLE_TOL))
        fz = polar_decompose(z)
        checks.append(CheckResult(
            "contraction_excess", max(0.0, fz.fac.sigma_max - 1.0),
            EXAMPLE_TOL))
        u_z = fz.u0
        u_s = polar_decompose(op.matrix).u0
        checks.append(CheckResult(
            "polar_transport", (u_z - u_s).frobenius_norm(), 1e-8))
    header = [f"qpolar example {which} n={n} tol={EXAMPLE_TOL:.6e}"]
    return Report(header, checks)


def _span_residual(basis, coords, n: int) -> float:
    """Frobenius distance between span(basis) and span of the given axes."""
    want = QMatrix.zeros(n)
    for k in coords:
        want.a1[k - 1, k - 1] = 1.0
    if not basis:
        return want.frobenius_norm()
    have = projector_onto(basis)
    return (have - want).frobenius_norm()


def cmd_example(which: str, n: int, out_path: str | None = None) -> int:
    try:
        report = example_report(which, n)
    except transform.DimensionTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_out(report.format(), out_path)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpolar",
        description="Polar decomposition of quaternionic matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_polar = sub.add_parser("polar", help="polar-decompose a matrix file")
    p_polar.add_argument("--in", dest="in_path", required=True,
                         help="input file in QMAT format")
    p_polar.add_argument("--tol", type=float, default=None,
                         help="residual tolerance (default QPOLAR_TOL or 1e-9)")
    p_polar.add_argument("--out", dest="out_path", default=None,
                         help="write the report to this file")

    p_verify = sub.add_parser("verify", help="run the randomized suites")
    p_verify.add_argument("--dim", type=int, required=True)
    p_verify.add_argument("--trials", type=int, required=True)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="worker processes (results identical to serial)")
    p_verify.add_argument("--out", dest="out_path", default=None)

    p_example = sub.add_parser("example",
                               help="reproduce the weight-operator example")
    p_example.add_argument("which", choices=("bounded", "unbounded"))
    p_example.add_argument("--n", type=int, required=True,
                           help="truncation dimension, at least 7")
    p_example.add_argument("--out", dest="out_path", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "example":
        return cmd_example(args.which, args.n, args.out_path)
    try:
        tol = args.tol if args.tol is not None else default_tol()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "polar":
        return cmd_polar(args.in_path, tol, args.out_path)
    if args.command == "verify":
        try:
            cfg = SuiteConfig(dim=args.dim, trials=args.trials,
                              seed=args.seed, tol=tol)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = cmd_verify(cfg, jobs=max(1, args.jobs))
        _write_out(report.format(), args.out_path)
        return 0 if report.passed else 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
