"""The public names that the package, the benchmark tracer and the
benchmark runner rely on.

The tracer in perfbench/spans.py wraps each library function it lists by
name, so deleting or renaming one breaks a traced benchmark run; these
tests catch that in the tier-1 suite. perfbench/spans.py is read as text,
never imported.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import qpolar
from qpolar import polar_decompose, random_ops
from qpolar.rng import SplitMix64

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the cli names perfbench/run.py calls or reads
RUNNER_CLI_NAMES = ("DEFAULT_TOL", "SuiteConfig", "_run_suite_trial",
                    "run_suite", "cmd_verify", "cmd_polar")


def _tracer_layers() -> tuple:
    """The LAYERS literal of perfbench/spans.py: (module, functions, span)."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "LAYERS"):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def test_all_names_resolve_once():
    assert len(qpolar.__all__) == len(set(qpolar.__all__))
    missing = [name for name in qpolar.__all__ if not hasattr(qpolar, name)]
    assert missing == []


def test_traced_layer_functions_resolve():
    layers = _tracer_layers()
    assert layers
    missing = [f"{module}.{name}" for module, names, _ in layers
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"qpolar.{module}"), name, None))]
    assert missing == []


def test_runner_cli_names_resolve():
    from qpolar import cli
    missing = [name for name in RUNNER_CLI_NAMES if not hasattr(cli, name)]
    assert missing == []


def test_polar_verdict_fields_replaceable():
    # the benchmark's oracle tests plant a wrong verdict this way
    f = polar_decompose(random_ops.rank_deficient(SplitMix64(1), 4, 2))
    planted = dataclasses.replace(f, null_rank=f.null_rank + 1,
                                  unique=not f.unique)
    assert (planted.null_rank, planted.unique) == (f.null_rank + 1,
                                                   not f.unique)
