"""Span tracing of the qpolar layers, installed from outside the library.

Each public layer function is replaced, under every name it has in every
loaded qpolar module, by a wrapper that records a span (name, start, end,
parent) in memory. Because the replacement covers the names a module
imported, calls between layers are seen too: `ckernel.svd` reaching
`hermitian_eig`, `polar_decompose` reaching `classify`. The originals are
put back when the tracer is removed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import sys
import time

import numpy as np

# (module, public functions, span name); functions sharing a span name are
# one layer
LAYERS = (
    ("ckernel", ("hermitian_eig",), "ckernel.hermitian_eig"),
    ("ckernel", ("svd",), "ckernel.svd"),
    ("ckernel", ("psd_sqrt",), "ckernel.psd_sqrt"),
    ("ckernel", ("gauss_inv",), "ckernel.gauss_inv"),
    ("ckernel", ("classify_cmatrix",), "ckernel.classify_cmatrix"),
    ("slices", ("chi", "embed_vector"), "slices.embed"),
    ("slices", ("chi_pullback",), "slices.chi_pullback"),
    ("slices", ("equivalence_suite",), "slices.equivalence_suite"),
    ("qlinalg", ("classify",), "qlinalg.classify"),
    ("qlinalg", ("null_range_bases",), "qlinalg.null_range_bases"),
    ("qlinalg", ("gram_schmidt",), "qlinalg.gram_schmidt"),
    ("qlinalg", ("quaternionic_rank",), "qlinalg.quaternionic_rank"),
    ("qlinalg", ("operator_norm",), "qlinalg.operator_norm"),
    ("polar", ("polar_decompose",), "polar.polar_decompose"),
    ("polar", ("perturb_polar",), "polar.perturb_polar"),
    ("polar", ("canonical_perturbation",), "polar.canonical_perturbation"),
    ("polar", ("modulus",), "polar.modulus"),
    ("polar", ("sqrt_positive_spectral", "sqrt_positive_composite",
               "sqrt_strictly_positive"), "polar.sqrt"),
    ("transform", ("z_transform",), "transform.z_transform"),
    ("transform", ("z_inverse",), "transform.z_inverse"),
    ("random_ops", ("rand_quaternion", "rand_qvector", "rand_qmatrix",
                    "hermitian", "anti_self_adjoint", "psd", "unitary",
                    "normal", "projection", "rank_deficient",
                    "partial_isometry", "bounded_norm"), "random_ops"),
    ("qmatio", ("parse_qmat",), "qmatio.parse_qmat"),
    ("qmatio", ("emit_qmat",), "qmatio.emit_qmat"),
    ("cli", ("polar_report",), "cli.polar_report"),
)

SUITES = ("chi", "sqrt", "polar", "dichotomy", "transform")
EIG_SIZES = (16, 64, 96)
POLAR_SIZES = (16, 32, 48)

# layers reported by self time only; the others also by call count
_SELF_ONLY = ("random_ops", "qmatio.parse_qmat", "qmatio.emit_qmat",
              "cli.polar_report")
_CALLS_AND_SELF = tuple(span for _, _, span in LAYERS
                        if span not in _SELF_ONLY)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in _CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in _SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for size in EIG_SIZES:
        units[f"ckernel.hermitian_eig.ms.2n{size}"] = "ms"
    units["ckernel.svd.eig_per_call"] = "ratio"
    units["ckernel.svd.repeat_ratio"] = "ratio"
    units["ckernel.eig_per_op"] = "ratio"
    for suite in SUITES:
        units[f"cli.suite.{suite}.s"] = "s"
    for size in EIG_SIZES:
        units[f"ceiling.eigh_ms.2n{size}"] = "ms"
    units["ceiling.eigh_s"] = "s"
    units["ckernel.hermitian_eig.x_ceiling"] = "x"
    units["trace.overhead_s"] = "s"
    units["trace.ops"] = "count"
    for size in POLAR_SIZES:
        units[f"polar_ms.n{size}"] = "ms"
    units["fail_ratio"] = "ratio"
    units["scale.fail_ratio"] = "ratio"
    return units


def _digest(m) -> bytes:
    a = np.ascontiguousarray(m, dtype=complex)
    return hashlib.blake2b(repr(a.shape).encode() + a.tobytes(),
                           digest_size=16).digest()


class Tracer:
    """In-memory span recorder for one traced run.

    A span is [name, start, end, parent index, tag]; a span opened with no
    span open is an op. Within an op, `ckernel.svd` inputs are fingerprinted
    to count byte-equal repeats, and `hermitian_eig` inputs are kept so the
    same matrices can be timed on numpy.linalg.eigh afterwards.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op_svd_inputs: set = set()
        self.svd_repeats = 0
        self.eig_inputs: list = []

    def _hook(self, name: str, args) -> object:
        if name == "ckernel.svd":
            key = _digest(args[0])
            if key in self._op_svd_inputs:
                self.svd_repeats += 1
            self._op_svd_inputs.add(key)
        elif name == "ckernel.hermitian_eig":
            m = np.array(args[0], dtype=complex)
            self.eig_inputs.append(m)
            return m.shape[0]
        return None

    def wrap(self, name, fn):
        """fn recording a span per call; name may be a function of the args."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if not stack:
                self._op_svd_inputs = set()
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1,
                   self._hook(label, args)]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, extra=()):
        """Wrap every layer function, plus (module, attribute, name) extras."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qpolar" or key.startswith("qpolar.")]
        saved = []
        targets = [(mod, fn, span) for mod, fns, span in LAYERS for fn in fns]
        targets += list(extra)
        for mod_name, fn_name, span in targets:
            orig = getattr(sys.modules[f"qpolar.{mod_name}"], fn_name)
            wrapper = self.wrap(span, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def layer_metrics(self) -> dict:
        """Calls, self time and the derived counters, keyed by metric name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = {}
        self_s: dict = {}
        total: dict = {}
        eig_ms: dict = {size: [] for size in EIG_SIZES}
        eig_in_svd = 0
        ops = 0
        for idx, (name, start, end, parent, tag) in enumerate(self.spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[idx]
            total[name] = total.get(name, 0.0) + dur
            if parent < 0:
                ops += 1
            if name == "ckernel.hermitian_eig":
                if tag in eig_ms:
                    eig_ms[tag].append(1e3 * dur)
                if parent >= 0 and self.spans[parent][0] == "ckernel.svd":
                    eig_in_svd += 1
        out = {}
        for name in _CALLS_AND_SELF:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in _SELF_ONLY:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for size, vals in eig_ms.items():
            out[f"ckernel.hermitian_eig.ms.2n{size}"] = (
                statistics.median(vals) if vals else 0.0)
        svd_calls = calls.get("ckernel.svd", 0)
        out["ckernel.svd.eig_per_call"] = (
            eig_in_svd / svd_calls if svd_calls else 0.0)
        out["ckernel.svd.repeat_ratio"] = (
            self.svd_repeats / svd_calls if svd_calls else 0.0)
        out["ckernel.eig_per_op"] = (
            calls.get("ckernel.hermitian_eig", 0) / ops if ops else 0.0)
        for suite in SUITES:
            out[f"cli.suite.{suite}.s"] = total.get(f"cli.suite.{suite}", 0.0)
        out.update(self._ceiling(self_s.get("ckernel.hermitian_eig", 0.0)))
        out["trace.ops"] = ops
        return out

    def _ceiling(self, eig_s: float) -> dict:
        """numpy.linalg.eigh on the very matrices hermitian_eig received."""
        per_size: dict = {size: [] for size in EIG_SIZES}
        total = 0.0
        for m in self.eig_inputs:
            t0 = time.perf_counter()
            np.linalg.eigh(m)
            dt = time.perf_counter() - t0
            total += dt
            if m.shape[0] in per_size:
                per_size[m.shape[0]].append(1e3 * dt)
        out = {f"ceiling.eigh_ms.2n{size}": (statistics.median(v) if v else 0.0)
               for size, v in per_size.items()}
        out["ceiling.eigh_s"] = total
        out["ckernel.hermitian_eig.x_ceiling"] = eig_s / total if total else 0.0
        return out
