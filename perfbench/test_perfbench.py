"""Tests of the benchmark itself: ``python -m pytest perfbench``.

The smoke runs execute every workload at tiny scale with every gate, in both
the untraced and the traced mode, and check the printed metric names
against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_parse_ablation_accepts_numpy_repr_and_plain_float():
    text = ("base\tbn\taux=on\toverall_auc=np.float64(0.60531801201116)\n"
            "star\tpn\taux=off\toverall_auc=0.6012901751233429\n")
    assert run.parse_ablation(text) == [
        ("base", "bn", True, 0.60531801201116),
        ("star", "pn", False, 0.6012901751233429),
    ]
    with pytest.raises(ValueError):
        run.parse_ablation("star\tpn\taux=on\tauc=0.6\n")


def test_self_time_subtracts_child_coverage():
    # root [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6]
    spans = {"start": np.array([0.0, 1.0, 4.0, 5.0]),
             "end": np.array([10.0, 3.0, 8.0, 6.0]),
             "parent": np.array([-1, 0, 0, 2]),
             "name": np.array([0, 1, 1, 2]),
             "names": ["root", "child", "leaf"]}
    assert tracer.self_times(spans).tolist() == [4.0, 2.0, 3.0, 1.0]
    summary = tracer.summarize(spans)
    assert summary["child"] == {"self_s": 5.0, "calls": 2, "total_s": 6.0}


def test_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", (("train", "no_such_function"),
                                            ("model", "NoSuchClass.forward")))
    t = tracer.install(tracer.Tracer())
    assert t.missing == ["train.no_such_function", "model.NoSuchClass.forward"]


def test_request_chunks_are_full_and_single_domain():
    domains = np.array([1] * 250 + [2] * 99 + [3] * 100)
    chunks = child.request_chunks(domains)
    assert chunks.shape == (3, child.REQUEST_SIZE)
    assert all(len(set(domains[c])) == 1 for c in chunks)


def _bench(*args, cwd=None, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_passes_every_gate(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        metrics = result["metrics"]
        for name in run.EVERYWHERE:
            assert metrics[f"{name}.calls"]["value"] > 0, name
        assert "step phases" in proc.stdout
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "train_default", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
