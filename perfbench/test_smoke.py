"""Smoke test of the benchmark on a tiny case (K=3, B=4, 2 outer iterations).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run(workload, trace, cwd=ROOT, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_direction(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    table = {line.split()[0]: line.split() for line in lines[:-1] if line.endswith(" is better")}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        row = table[m["name"]]
        assert row[2:] == [m["unit"], m["better"], "is", "better"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        own = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        total = own + metrics["trace.unlisted_self_s"] + metrics["trace.outside_s"]
        assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def _spans(workload, seed):
    spans = np.load(ROOT / "perfbench_out" / f"{workload}-seed{seed}.spans.npz")
    names = list(spans["names"])
    return names, spans["name"], spans["parent"]


def test_chol_factor_imported_by_name_into_repair_is_traced():
    assert run("fit-n100", 1, seed=6).returncode == 0
    names, name_of, parent = _spans("fit-n100", 6)
    chol = names.index("covkernel.chol_factor")
    callers = {names[name_of[p]] for p in parent[(name_of == chol) & (parent >= 0)]}
    # update_W and PhiNodes call the `chol_factor` bound in repair's namespace
    assert {"repair.update_W", "repair.PhiNodes"} <= callers


def test_vjp_closure_is_a_child_of_the_gradient():
    names, name_of, parent = _spans("fit-n100", 6)
    vjp = names.index("permops.sinkhorn_vjp")
    assert {names[name_of[p]] for p in parent[name_of == vjp]} == {"repair.perm_elbo_and_grad"}


def test_tracing_is_undone_after_the_block():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from tracer import Tracer
        from unlinked import covkernel, repair

        before = repair.chol_factor
        with Tracer().installed():
            assert repair.chol_factor is not before and covkernel.chol_factor is repair.chol_factor
        assert repair.chol_factor is before and covkernel.chol_factor is before
    finally:
        del sys.path[:2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("fit-n100", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
