"""Self-tests of the benchmark, kept out of the package's test suite:

    python3 -m pytest perfbench/selftest.py

They run every workload at a tiny size, check that each metric declared in
BENCHMARK.json is emitted, and that tampered results count as failed ops.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    info, result = run.run_workload(workload, seed=3, seconds=0.1, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    assert "missing_metrics" not in info


def test_traced_run_keeps_layers_apart():
    _, result = run.run_workload("search-primitive", seed=3, seconds=0.1, trace=True, tiny=True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["matrices.nabla.calls"] == 0
    assert values["moves.enumerate_moves.calls"] > 0
    _, result = run.run_workload("fingerprint-sweep", seed=3, seconds=0.1, trace=True, tiny=True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["moves.enumerate_moves.calls"] == 0  # the checks run untraced
    assert values["matrices.nabla.calls"] > 0


def _tiny_passes(workload, workdir, count):
    P = run.fresh_program()
    build = workloads.WORKLOADS[workload][0]
    ops = build(P, 3, str(workdir), tiny=True)
    return ops, [run.run_pass(ops) for _ in range(count)]


def test_tampered_certificate_counts_as_failed(tmp_path):
    ops, passes = _tiny_passes("search-primitive", tmp_path, 1)
    assert run.check_passes(ops, passes)[0] == 0
    cert, _ = passes[0].results[0]
    cert.moves = cert.moves[:-1]
    assert run.check_passes(ops, passes)[0] == 1


def test_tampered_fingerprint_counts_as_failed(tmp_path):
    ops, passes = _tiny_passes("fingerprint-sweep", tmp_path, 1)
    digest = run.check_passes(ops, passes)[1]
    fp = passes[0].results[0]
    fp.fields["gamma"] = (fp.fields["gamma"][0], ("tampered",))
    failed, tampered_digest = run.check_passes(ops, passes)
    assert failed == 1 and tampered_digest != digest


def test_a_later_pass_must_reproduce_the_first(tmp_path):
    ops, passes = _tiny_passes("homotopic-pairs", tmp_path, 2)
    assert run.check_passes(ops, passes)[0] == 0
    code, out = passes[1].results[0]
    passes[1].results[0] = (code, out.replace("HOMOTOPIC", "UNKNOWN"))
    assert run.check_passes(ops, passes)[0] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and done.stdout == ""
