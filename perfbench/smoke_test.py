"""Smoke test of the benchmark: every workload at its smallest size, one seed.

    python3 perfbench/smoke_test.py
    python3 -m pytest -q perfbench/smoke_test.py

Checks that no op fails, that every metric named in ``BENCHMARK.json`` is
reported with its unit, that the exact counts and both behaviour digests
repeat across two traced runs, and that the layers a workload is predicted
never to reach get no calls.  The suite's ``testpaths`` does not
include this directory, so the Tier-1 run does not collect it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7
EXACT_PREFIXES = ("kernel.steps.", "solver.branchings.", "answers_digest", "search_digest")
EXACT = ("solver.nodes", "solver.max_depth", "solver.tg_nodes", "solver.final_iteration_node_share")
# Layers a workload is predicted never to reach (see README.md).
PREDICTED_UNUSED = {
    "tight_cw": ("gallai_edmonds.decompose", "solver.choose_rule", "solver.expand"),
    "ds_subdivision": ("oracle.is_triangle_star",),
}


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(measure, name, *args):
    failures = run.Failures()
    metrics, _ = measure(name, SEED, *args, failures, smoke=True)
    assert failures.attempted > 0, name
    assert not failures.problems, failures.problems
    return metrics


def check_workload(name):
    assert dict(run.END_TO_END) == _units("end_to_end")
    assert dict(run.PER_LAYER) == _units("per_layer")

    e2e = _run(run.measure_end_to_end, name, 0.0)
    assert set(e2e) == set(_units("end_to_end"))
    assert all(value > 0 for value in e2e.values()), e2e

    first = _run(run.measure_per_layer, name)
    second = _run(run.measure_per_layer, name)
    assert set(first) == set(_units("per_layer"))
    exact = [k for k in first if k in EXACT or k.startswith(EXACT_PREFIXES) or k.endswith(".calls")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    for span in PREDICTED_UNUSED.get(name, ()):
        assert first[f"{span}.calls"] == 0, span


def test_gnp_mixed():
    check_workload("gnp_mixed")


def test_tight_cw():
    check_workload("tight_cw")


def test_ds_subdivision():
    check_workload("ds_subdivision")


def test_decompose_sparse():
    check_workload("decompose_sparse")


if __name__ == "__main__":
    for workload in sorted(run.workloads.WORKLOADS):
        check_workload(workload)
        print(f"ok {workload}")
