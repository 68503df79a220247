#!/usr/bin/env python3
"""qpolar benchmark: the verify battery and a polar size ladder.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a qpolar checkout; the library is imported from its
`src/` directory. Each run is one process, one caller, closed loop: an op
starts when the previous one has returned, and every output is checked.
Work is done in passes, a fixed set of ops per workload, repeated for
about `--seconds`.

Workloads:
  battery          `qpolar verify --dim 8 --trials 10 --seed 42` in every
                   pass; an op is one suite trial. This is the fixed config
                   the suite timings are compared at, so --seed leaves it
                   unchanged.
  polar_fullrank   `qpolar polar` on full-rank n = 16, 32, 48 inputs.
  polar_deficient  `qpolar polar` on n = 16, 32 inputs of planted rank
                   n/4, n/2, 3n/4 (n = 16 twice); the traced run adds an
                   untimed slice of n = 8 inputs scaled by powers of two
                   from 1e-300 to 1e300.

With --trace 0 the end-to-end metrics are printed, with --trace 1 the
per-layer ones (from perfbench/spans.py). The last stdout line is the
JSON result; `# ` lines before it carry the machine record and digests.
perfbench/METRICS.md says what each metric is and what should move it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# pin BLAS before numpy loads; children inherit the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("battery", "polar_fullrank", "polar_deficient")
BATTERY_DIM, BATTERY_TRIALS, BATTERY_SEED = 8, 10, 42
CELLS = {
    "polar_fullrank": ((16, 16), (32, 32), (48, 48)),
    # n = 16 twice, so the median op is an n = 16 op, not the size boundary
    "polar_deficient": ((16, 4), (16, 8), (16, 12), (16, 4), (16, 8), (16, 12),
                        (32, 8), (32, 16), (32, 24)),
}
# untimed robustness slice: n = 8, rank 4, T scaled by 2**e (1e-300 .. 1e300)
SCALE_N, SCALE_RANK = 8, 4
SCALE_EXPONENTS = (-996, -664, -565, -332, 0, 332, 531, 996)
SETUP_SAMPLES = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_ms.p50": "ms",
                    "op_ms.p90": "ms", "peak_rss_mb": "MB"}
# passes in a traced run (each done once untraced, once traced), fixed so
# call counts repeat exactly for a seed
TRACE_PASSES = {"battery": 2, "polar_fullrank": 3, "polar_deficient": 1}


class Workload:
    """Inputs, ops and output checks of one workload at one seed."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import numpy as np
        import oracle
        from qpolar import cli
        self.np, self.oracle, self.cli = np, oracle, cli
        self.name, self.seed, self.workdir = name, seed, workdir
        self.tol = cli.DEFAULT_TOL
        self.reports: list = []
        self.trial_s: list = []
        self._inputs: dict = {}
        if name == "battery":
            # time each suite trial as the library's own run_suite makes it
            run_trial = cli._run_suite_trial

            def timed_trial(args):
                t0 = time.perf_counter()
                try:
                    return run_trial(args)
                finally:
                    self.trial_s.append(time.perf_counter() - t0)

            cli._run_suite_trial = timed_trial

    def inputs(self, p: int) -> list:
        """(n, rank, path, singular values of chi_T) for each op of pass p."""
        if p not in self._inputs:
            out = []
            for idx, (n, rank) in enumerate(CELLS[self.name]):
                rng = self.np.random.default_rng([self.seed, p, idx])
                chi_t = self.oracle.planted_rank(rng, n, rank)
                path = self.workdir / f"in-{p}-{idx}.qmat"
                path.write_text(self.oracle.format_qmat(chi_t), encoding="utf-8")
                sv = self.np.linalg.svd(chi_t, compute_uv=False)
                out.append((n, rank, path, sv))
            self._inputs[p] = out
        return self._inputs[p]

    def polar_op(self, path: Path, rank: int, sv_ref) -> tuple:
        """One `qpolar polar` call: (seconds, problems with its output)."""
        out_path = self.workdir / "out.txt"
        out_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = self.cli.cmd_polar(str(path), self.tol, str(out_path))
        except Exception as exc:  # a crash is a failed op, not a crashed run
            return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        text = (out_path.read_text(encoding="utf-8") if out_path.exists()
                else "")
        return dt, self.oracle.check_polar(code, text, rank, sv_ref)

    def run_pass(self, p: int) -> dict:
        """One pass: wall seconds, per-op (size, seconds) and problems."""
        if self.name == "battery":
            cfg = self.cli.SuiteConfig(dim=BATTERY_DIM, trials=BATTERY_TRIALS,
                                       seed=BATTERY_SEED, tol=self.tol)
            first = len(self.trial_s)
            t0 = time.perf_counter()
            report = self.cli.cmd_verify(cfg).format()
            wall = time.perf_counter() - t0
            self.reports.append(report)
            ops = [(BATTERY_DIM, s) for s in self.trial_s[first:]]
            # a FAIL line aggregates over trials: count it as one failed op
            problems = self.oracle.check_battery(report)
            if report != self.reports[0]:
                problems.append(f"pass {p} report differs from pass 0")
            return {"wall": wall, "ops": ops, "failed": len(problems),
                    "problems": problems}
        ops, problems, failed = [], [], 0
        for n, rank, path, sv in self.inputs(p):
            dt, bad = self.polar_op(path, rank, sv)
            ops.append((n, dt))
            failed += bool(bad)
            problems += [f"n={n} rank={rank}: {b}" for b in bad]
        return {"wall": sum(dt for _, dt in ops), "ops": ops,
                "failed": failed, "problems": problems}

    def warm_up(self) -> None:
        if self.name == "battery":
            cfg = self.cli.SuiteConfig(dim=BATTERY_DIM, trials=1,
                                       seed=BATTERY_SEED, tol=self.tol)
            self.cli.run_suite("polar", cfg)
            self.trial_s.clear()
        else:
            n, rank, path, sv = self.inputs(0)[0]
            self.polar_op(path, rank, sv)

    def battery_identity(self) -> list:
        """Pass 0's report against `qpolar verify` run as a command."""
        seed = BATTERY_SEED
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "qpolar.cli", "verify",
             "--dim", str(BATTERY_DIM), "--trials", str(BATTERY_TRIALS),
             "--seed", str(seed), "--tol", repr(self.tol)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0 or proc.stdout != self.reports[0]:
            return [f"assembled report differs from qpolar verify --seed {seed}"
                    f" (exit {proc.returncode})"]
        return []

    def scale_slice(self) -> tuple:
        """(attempted, failed) over the power-of-two scale slice."""
        np = self.np
        rng = np.random.default_rng([self.seed, 1 << 20])
        base = self.oracle.planted_rank(rng, SCALE_N, SCALE_RANK)
        sv_base = np.linalg.svd(base, compute_uv=False)
        failed = 0
        for e in SCALE_EXPONENTS:
            path = self.workdir / f"scale{e}.qmat"
            path.write_text(self.oracle.format_qmat(base * 2.0 ** e),
                            encoding="utf-8")
            with np.errstate(all="ignore"):
                _, bad = self.polar_op(path, SCALE_RANK, sv_base * 2.0 ** e)
            failed += bool(bad)
            print(f"# scale 2**{e}: {'; '.join(bad) if bad else 'ok'}")
        return len(SCALE_EXPONENTS), failed


def setup(workload: str, seed: int, workdir: Path) -> tuple:
    """Import, input generation and one warm-up op: (Workload, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import qpolar
    if Path(qpolar.__file__).resolve().parent != SRC / "qpolar":
        raise ImportError(f"qpolar came from {qpolar.__file__}, not {SRC}")
    w = Workload(workload, seed, workdir)
    if workload != "battery":
        w.inputs(0)
    w.warm_up()
    return w, time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def machine_record(seed: int) -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError, ValueError):
        pass
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode())
        src_digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": 1, "seed": seed, "commit": commit,
            "src_sha256": src_digest.hexdigest()}


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(w: Workload, seconds: float) -> list:
    """Untraced passes for about `seconds`.

    Another pass starts while it would end, at the last pass's pace, less
    than half a pass after `seconds`, so a run rounds to whole passes.
    """
    passes = []
    start = time.perf_counter()
    while (not passes or time.perf_counter() - start
           + passes[-1]["wall"] / 2 < seconds):
        passes.append(w.run_pass(len(passes)))
    return passes


def end_to_end(w: Workload, args, setup_samples: list) -> tuple:
    passes = measure(w, args.seconds)
    extra = w.battery_identity() if w.name == "battery" else []
    # every pass runs the same op positions (a battery trial, a polar
    # (n, rank) cell), so an op's latency is its position's median over
    # passes; pooled copies would put p50 and p90 between two positions
    per_op = zip(*([dt for _, dt in p["ops"]] for p in passes))
    op_ms = [1e3 * statistics.median(dts) for dts in per_op]
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p90": percentile(op_ms, 90),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
    }
    print(f"# passes {len(passes)}, {len(op_ms)} ops per pass")
    metrics = {name: (values[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    return passes, extra, metrics


def per_layer(w: Workload, args) -> tuple:
    import spans
    n_pass = TRACE_PASSES[w.name]
    plain = [w.run_pass(p) for p in range(n_pass)]
    tracer = spans.Tracer()
    extra_targets = [("cli", "cmd_polar", "cli.cmd_polar"),
                     ("cli", "_run_suite_trial",
                      lambda a: f"cli.suite.{a[0][0]}")]
    with tracer.installed(extra_targets):
        traced = [w.run_pass(p) for p in range(n_pass)]
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl")
    layer = tracer.layer_metrics()
    layer["trace.overhead_s"] = (sum(p["wall"] for p in traced)
                                 - sum(p["wall"] for p in plain))
    for size in spans.POLAR_SIZES:
        vals = [1e3 * dt for p in plain for n, dt in p["ops"] if n == size]
        layer[f"polar_ms.n{size}"] = (statistics.median(vals) if vals
                                      else 0.0)
    passes = plain + traced
    extra = w.battery_identity() if w.name == "battery" else []
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    scale_attempted, scale_failed = (w.scale_slice()
                                     if w.name == "polar_deficient" else (0, 0))
    layer["fail_ratio"] = ((failed + scale_failed)
                           / (attempted + scale_attempted))
    layer["scale.fail_ratio"] = (scale_failed / scale_attempted
                                 if scale_attempted else 0.0)
    units = spans.per_layer_units()
    metrics = {name: (layer[name], unit) for name, unit in units.items()}
    return passes, extra, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qpolar" / "__init__.py").is_file():
        print(f"error: no qpolar sources under {SRC}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        w, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print("# machine " + json.dumps(machine_record(args.seed)))
        if args.trace:
            passes, extra, metrics = per_layer(w, args)
        else:
            samples = [setup_s] + [setup_probe(args.workload, args.seed)
                                   for _ in range(SETUP_SAMPLES - 1)]
            passes, extra, metrics = end_to_end(w, args, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if w.reports:
        digest = hashlib.sha256(w.reports[0].encode()).hexdigest()
        print(f"# battery report sha256 {digest}, {len(w.reports)} passes")
    for p in passes:
        for problem in p["problems"]:
            print(f"# FAILED {problem}")
    for problem in extra:
        print(f"# FAILED {problem}")
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0 and not extra,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
