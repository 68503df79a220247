"""Checks of the benchmark's own oracle and tracer.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

import oracle
import run
import spans

sys.path.insert(0, str(run.SRC))

from qpolar import cli, ckernel, polar  # noqa: E402


@pytest.fixture
def small_ladder(monkeypatch, tmp_path):
    monkeypatch.setitem(run.CELLS, "polar_deficient", ((4, 2), (4, 4)))
    return run.Workload("polar_deficient", 7, tmp_path)


def test_correct_outputs_pass(small_ladder):
    result = small_ladder.run_pass(0)
    assert result["failed"] == 0, result["problems"]
    assert len(result["ops"]) == 2


def test_planted_wrong_verdict_is_counted(small_ladder, monkeypatch):
    real = cli.polar_decompose

    def off_by_one(t, *args, **kwargs):
        f = real(t, *args, **kwargs)
        return dataclasses.replace(f, null_rank=f.null_rank + 1, unique=False)

    monkeypatch.setattr(cli, "polar_decompose", off_by_one)
    result = small_ladder.run_pass(0)
    assert result["failed"] == 2
    assert any("null_rank" in p for p in result["problems"])
    assert any("unique false, planted true" in p for p in result["problems"])


def test_wrong_singular_values_are_caught():
    rng = np.random.default_rng(3)
    chi_t = oracle.planted_rank(rng, 3, 3)
    sv = np.linalg.svd(chi_t, compute_uv=False)
    text = ("# null_rank 0\n# unique true\n# |T|\n"
            + oracle.format_qmat(chi_t))  # T in place of |T|: same sv
    assert oracle.check_polar(0, text, 3, sv) == []
    assert oracle.check_polar(0, text, 3, sv * (1 + 1e-6)) != []


def test_battery_fail_line_is_counted():
    report = ("# qpolar verify\nchi.add_residual 1.0e-20 1.0e-11 PASS\n"
              "polar.null_rank_mismatches 1.0e+00 0.0e+00 FAIL\n"
              "summary 2 checks 1 passed 1 failed\n")
    assert oracle.check_battery(report) == [
        "polar.null_rank_mismatches 1.0e+00 0.0e+00 FAIL"]


def test_tracer_sees_calls_between_layers():
    from qpolar import QMatrix
    rng = np.random.default_rng(5)
    t = QMatrix(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    tracer = spans.Tracer()
    original = polar.polar_decompose
    with tracer.installed():
        assert cli.polar_decompose is not original
        polar.polar_decompose(t)
    assert cli.polar_decompose is original
    assert ckernel.svd.__name__ == "svd"
    names = [s[0] for s in tracer.spans]
    assert names[0] == "polar.polar_decompose"
    assert "ckernel.svd" in names and "ckernel.hermitian_eig" in names
    metrics = tracer.layer_metrics()
    assert metrics["trace.ops"] == 1
    assert metrics["ckernel.svd.eig_per_call"] >= 1.0
    assert metrics["polar.polar_decompose.self_s"] >= 0.0


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in bench["end_to_end"]}
            == run.END_TO_END_UNITS)
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == spans.per_layer_units())
