"""Command-line front end: matrix file polar reports, closed-form example
reproduction, and randomized verification suites.

Reports are line-oriented text. Every check emits one line in the grammar
"name value threshold PASS|FAIL"; value is a residual (relative where the
name says _rel) or a violation count. Runs are deterministic for a given
seed: trial k of a suite draws from its own generator stream, so serial
and parallel execution produce byte-identical reports.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import ckernel, random_ops, rng, transform
from .polar import (BadPerturbation, canonical_perturbation, perturb_polar,
                    polar_decompose, sqrt_positive_composite,
                    sqrt_positive_spectral, sqrt_strictly_positive)
from .qlinalg import (QMatrix, check_tol, operator_norm, projector_onto,
                      quaternionic_rank, _svd_bases)
from .qmatio import QMatFormatError, emit_qmat, parse_qmat
from .slices import chi, chi_pullback, equivalence_suite

DEFAULT_TOL = 1e-9
# the largest verify --dim and example --n: 256 complex n x n arrays fit the
# MEMORY_BUDGET of a process; tracemalloc (n = 8..96) saw a verify trial
# peak at about 150, an example report at 35-49 and a polar one at 22-34
MEMORY_BUDGET = 2 ** 30
MAX_DIM = math.isqrt(MEMORY_BUDGET // (256 * 16))


@dataclass(frozen=True)
class SuiteConfig:
    dim: int
    trials: int
    seed: int
    tol: float

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dim must be from 1 to {MAX_DIM}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 unsigned bits")
        check_tol(self.tol)


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
                abs(operator_norm(a) - QMatrix(ca).fac.sigma_max)))
    # planted-rank draw: chi(rd) has twice the null dimension of rd
    rank = rr.randint(n + 1)
    rd = random_ops.rank_deficient(rr, n, rank)
    null_c = 2 * n - QMatrix(chi(rd)).fac.rank
    null_h = n - quaternionic_rank(rd)
    out.append(("chi.null_dim_mismatches", float(null_c != 2 * null_h)))
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


def _polar_identities(t: QMatrix, f, g: QMatrix) -> list:
    """(name, value) of the four polar identities, relative to ||T||; g is
    U0* U0, the bytes of u0.adjoint() @ u0."""
    scale = max(1.0, t.frobenius_norm())
    u0, p = f.u0, f.abs_t
    u0s = u0.adjoint()
    return [
        ("reconstruction_rel", (u0 @ p - t).frobenius_norm() / scale),
        ("identity_isometry_rel", (g @ p - p).frobenius_norm() / scale),
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
    g = u0.adjoint() @ u0
    out = [("polar." + name, value)
           for name, value in _polar_identities(t, f, g)]
    # round(Re tr g) is U0's rank only while n projection_residual(g) < 1/5
    rank_ok = (n * ckernel.projection_residual(g.p) < 0.2
               and ckernel.partial_isometry_rank(g.p) == n - f.null_rank)
    out.append(("polar.null_rank_mismatches", float(not rank_ok)))
    null_basis = _svd_bases(f.fac)[0]
    # a product per column: one u0 @ null_basis product rounds differently
    annihilation = max(((u0 @ null_basis.column(k)).frobenius_norm()
                        for k in range(null_basis.shape[1])), default=0.0)
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
    out = [("dichotomy.verdict_mismatches", float(f.unique != (rank == n)))]
    scale = max(1.0, t.frobenius_norm())
    if not f.unique:
        u = perturb_polar(f, canonical_perturbation(f))
        recon = (u @ f.abs_t - t).frobenius_norm() / scale
        out.append(("dichotomy.second_factorization_rel", recon))
        distinct = (u - f.u0).frobenius_norm() > 0.5
        out.append(("dichotomy.degenerate_perturbations", float(not distinct)))
        out.append(("dichotomy.surviving_perturbations", 0.0))
    else:
        survivors = 0
        for _ in range(50):
            v_src = random_ops.rand_qmatrix(rr, n, 1)
            v_dst = random_ops.rand_qmatrix(rr, n, 1)
            v_src = v_src * (1.0 / v_src.frobenius_norm())
            v_dst = v_dst * (1.0 / v_dst.frobenius_norm())
            v = v_dst @ v_src.adjoint()
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
    damp = transform.inv_sqrt_shifted_gram(t)
    z = t @ damp  # transform.z_transform(t)
    back = transform.z_inverse(z)
    fz, ft = polar_decompose(z), polar_decompose(t)
    out = [
        ("transform.roundtrip_rel", (back - t).frobenius_norm() / scale),
        ("transform.contraction_excess", max(0.0, fz.fac.sigma_max - 1.0)),
        ("transform.adjoint_identity",
         (transform.z_transform(t.adjoint()) - z.adjoint()).frobenius_norm()),
        ("transform.modulus_identity",
         (fz.abs_t - ft.abs_t @ damp).frobenius_norm()),
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
    """Run one named suite and aggregate per-check values across trials.
    A pool starts all its workers at once, so it gets at most one per trial
    and per CPU; the report is the same for any number of workers."""
    args = [(suite, cfg.dim, cfg.tol, cfg.seed, k) for k in range(cfg.trials)]
    workers = min(jobs, cfg.trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    """(report, factors) of T = a: seven checks on the polar factors, all
    read from T's one SVD, f.fac, and from g = U0* U0, formed once.

    u0_partial_isometry is ckernel.partial_isometry_residual of U0 on the
    columns v_k of T's V_r, an orthonormal basis of N(T)-perp, so it also
    fails a partial isometry whose initial space is not N(T)-perp.
    null_rank_match compares n - null_rank with
    ckernel.partial_isometry_rank(g), round(Re tr g), which is U0's rank
    while n delta < 1/5, delta that residual: at the default tol whenever
    u0_partial_isometry passes, for every n up to MAX_DIM. U0 itself is
    factored nowhere.
    """
    f = polar_decompose(a)
    g = f.u0.adjoint() @ f.u0
    coimage = f.fac.v[:, :, :f.fac.rank]
    checks = [CheckResult(name, value, tol)
              for name, value in _polar_identities(a, f, g)]
    checks += [
        CheckResult("u0_partial_isometry", ckernel.partial_isometry_residual(
            f.u0.p, g.p, coimage), tol),
        # relative like the positivity flag: the residual is the
        # certificate delta of the SVD, O(n eps sigma_max)
        CheckResult("abs_positive_rel",
                    f.abs_positivity()[0] / max(1.0, f.fac.sigma_max), tol),
        CheckResult("null_rank_match", float(ckernel.partial_isometry_rank(
            g.p) != a.shape[0] - f.null_rank), 0.0),
    ]
    header = [f"qpolar polar tol={tol:.6e}",
              f"null_rank {f.null_rank}",
              f"corange_rank {f.corange_rank}",
              f"unique {'true' if f.unique else 'false'}"]
    return Report(header, checks), f


def cmd_polar(in_path: str, tol: float, out_path: str | None = None) -> int:
    try:
        with open(in_path, "rb") as fh:
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
        print(f"error: the Jacobi SVD of T did not converge: {exc}",
              file=sys.stderr)
        return 3
    body = report.format()
    body += "# U0\n" + emit_qmat(factors.u0)
    body += "# |T|\n" + emit_qmat(factors.abs_t)
    return _write_out(body, out_path, 0 if report.passed else 3)


def _write_out(body: str, out_path: str | None, code: int) -> int:
    """Write body to out_path, or to stdout, and return the exit code:
    code, or 2 if out_path cannot be written."""
    if not out_path:
        sys.stdout.write(body)
        return code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    return code


# ---------------------------------------------------------------------------
# closed-form example reproduction
# ---------------------------------------------------------------------------

# residual tolerance of the example reports
EXAMPLE_TOL = 1e-10
# the variants of the weight-operator example, for example_report and the
# example subcommand
EXAMPLES = ("bounded", "unbounded")


def _damped(w):
    """The weights of Z_T for T = U0 diag(w): w / sqrt(1 + w^2)."""
    return w / np.sqrt(1.0 + w * w)


def example_report(which: str, n: int) -> Report:
    """Reproduce the diagonal-weight operator family at truncation n: T =
    U0 diag(w) is the truncation S of the weight operator (`unbounded`, w =
    (1, 1, 0, 0, 0, 6, ..., n)) or its transform Z_S, the weight matrix
    (`bounded`, w damped), and both run _weight_family_checks."""
    if which not in EXAMPLES:
        raise ValueError(f"unknown example {which!r}")
    bounded = which == "bounded"
    # DimensionTooSmall below n = 7, before anything of size n is built
    t = (transform.weight_matrix(n) if bounded
         else transform.truncated_example(n)[0])
    w = np.array([1.0, 1.0, 0.0, 0.0, 0.0] + list(range(6, n + 1)), float)
    checks = _weight_family_checks(t, _damped(w) if bounded else w)
    header = [f"qpolar example {which} n={n} tol={EXAMPLE_TOL:.6e}"]
    return Report(header, checks)


def _weight_family_checks(t: QMatrix, w) -> list:
    """The library's factors of T = U0 diag(w) against closed forms; U0
    sends e1 -> e2, e2 -> e4, e_k -> e_k for k >= 6 and kills N(T) =
    span(e3, e4, e5), and R(T)-perp is span(e1, e3, e5), so the verdict is
    "not unique". The swap V (e3 -> e1, e4 -> e3, e5 -> e5) gives U = U0 +
    V P, a permutation: N(U) = {0} is not N(T). Z_T = U0 diag(_damped(w)).
    Each norm is taken as its residual is formed."""
    n = t.shape[0]
    f = polar_decompose(t)
    null_basis, _, corange_basis = _svd_bases(f.fac)
    u = perturb_polar(f, transform.null_swap_perturbation(n))
    z = transform.z_transform(t)
    fz = polar_decompose(z)

    def gap(x, pairs, weights=None):
        """||x - X||_F, X sending e_k to e_j weights[k - 1] (or 1)."""
        return (x - transform.partial_permutation(n, [
            (k, j, 1.0 if weights is None else weights[k - 1])
            for k, j in pairs])).frobenius_norm()

    u0_pairs = [(1, 2), (2, 4)] + [(k, k) for k in range(6, n + 1)]
    values = [
        ("u0", gap(f.u0, u0_pairs)),
        ("modulus", gap(f.abs_t, [(k, k) for k in range(1, n + 1)], w)),
        ("null_space_span",
         gap(projector_onto(null_basis), [(3, 3), (4, 4), (5, 5)])),
        ("corange_span",
         gap(projector_onto(corange_basis), [(1, 1), (3, 3), (5, 5)])),
        ("verdict_nonunique", float(f.unique)),
        ("second_factorization", (u @ f.abs_t - t).frobenius_norm()),
        ("perturbed_isometry", gap(u, u0_pairs + [(3, 1), (4, 3), (5, 5)])),
        ("transform_coincides", gap(z, u0_pairs, _damped(w))),
        ("contraction_excess", max(0.0, fz.fac.sigma_max - 1.0)),
        ("polar_transport", (fz.u0 - f.u0).frobenius_norm()),
    ]
    gates = {"verdict_nonunique": 0.0, "polar_transport": 1e-8}
    return [CheckResult(name, value, gates.get(name, EXAMPLE_TOL))
            for name, value in values]


def cmd_example(which: str, n: int, out_path: str | None = None) -> int:
    if n > MAX_DIM:
        print(f"error: --n must be at most {MAX_DIM}", file=sys.stderr)
        return 2
    try:
        report = example_report(which, n)
    except transform.DimensionTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _write_out(report.format(), out_path, 0 if report.passed else 1)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="qpolar",
        description="Polar decomposition of quaternionic matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_polar = sub.add_parser("polar", help="polar-decompose a matrix file")
    p_polar.add_argument("--in", dest="in_path", required=True,
                         help="input file in QMAT format")
    p_polar.add_argument("--tol", type=float, default=DEFAULT_TOL,
                         help="residual tolerance (default 1e-9)")
    p_polar.add_argument("--out", dest="out_path", default=None,
                         help="write the report to this file")

    p_verify = sub.add_parser("verify", help="run the randomized suites")
    p_verify.add_argument("--dim", type=int, required=True)
    p_verify.add_argument("--trials", type=int, required=True)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL, help=(
        "tolerance of the chi suite's class verdicts, as max(tol, 1e-9), "
        "and of the header only; other checks keep fixed thresholds"))
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="worker processes (results identical to serial)")
    p_verify.add_argument("--out", dest="out_path", default=None)

    p_example = sub.add_parser("example",
                               help="reproduce the weight-operator example")
    p_example.add_argument("which", choices=EXAMPLES)
    p_example.add_argument("--n", type=int, required=True,
                           help=f"truncation dimension, 7 to {MAX_DIM}")
    p_example.add_argument("--out", dest="out_path", default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "example":
        return cmd_example(args.which, args.n, args.out_path)
    try:
        tol = check_tol(args.tol, "--tol")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "polar":
        return cmd_polar(args.in_path, tol, args.out_path)
    if args.command == "verify":
        try:
            cfg = SuiteConfig(dim=args.dim, trials=args.trials,
                              seed=args.seed, tol=tol)
            if args.jobs < 1:
                raise ValueError("--jobs must be at least 1")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = cmd_verify(cfg, jobs=args.jobs)
        return _write_out(report.format(), args.out_path,
                          0 if report.passed else 1)
    return 2


if __name__ == "__main__":
    sys.exit(main())
