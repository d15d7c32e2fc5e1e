"""Self-test of the benchmark: every workload at toy size, with and without
tracing, plus the expectation table and the tracer's failure modes.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import expectations  # noqa: E402
import tracer  # noqa: E402
from workloads import ALL_CHECKS, WORKLOADS  # noqa: E402

LISTED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 424242


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" /
                         f"result-{workload}-seed{SEED}-trace{trace}-toy.json").read_text())
    return line, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    line, record = _bench(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in LISTED["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())
    base = record["configs"] + 1
    assert line["metrics"]["failed_ratio"]["value"] == (record["mismatched_configs"] + 1) / base
    assert set(record["env"]) >= {"blas", "python", "numpy", "scipy", "nproc", "blas_threads"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    line, record = _bench(workload, 1)
    assert line["correct"] is True
    expected = {m["name"]: m["unit"] for m in LISTED["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected

    emitted = record["metrics"]
    for module, qual in tracer.TARGETS:
        name = tracer.metric_name(module, qual)
        for suffix, unit in (("calls", "count"), ("self_s", "s"), ("in_mb", "MB-computed")):
            assert emitted[f"{name}.{suffix}"]["unit"] == unit
    for check in ALL_CHECKS:
        assert emitted[f"check.{check}.s"]["unit"] == "s"
    for name in tracer.DISTINCT:
        assert 0 < emitted[f"{name}.distinct_ratio"]["value"] <= 1
    for layer in tracer.LAYERS:
        assert f"layer.{layer}.self_s" in emitted
    assert emitted["tracing.overhead_s"]["unit"] == "s"
    assert emitted["runner.run.calls"]["value"] == record["configs"]


def test_benchmark_refuses_a_tree_without_the_package():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        tree = Path(tmp)
        (tree / "perfbench").mkdir()
        for path in BENCH.glob("*.py"):
            (tree / "perfbench" / path.name).write_text(path.read_text())
        (tree / "BENCHMARK.json").write_text(json.dumps(LISTED))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "large-box",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tree, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0 and proc.stdout == ""


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("frames", "gone"),))
    with pytest.raises(tracer.TracerError, match="frames.gone"):
        tracer.Tracer()


def test_tracer_restores_every_reference():
    from bidiscframes import frames, runner, submodule

    before = (runner.run, runner.quotient, submodule.quotient, frames.frame_bounds,
              dict(runner._REGISTRY), runner.ExperimentConfig.__dict__["from_json"])
    with tracer.Tracer() as t:
        assert runner.quotient is submodule.quotient is not before[1]
        runner.run(runner.ExperimentConfig.from_json(
            {"fixture": "inner-zw", "order": [3, 3], "checks": ["frame-bounds"]}))
    after = (runner.run, runner.quotient, submodule.quotient, frames.frame_bounds,
             dict(runner._REGISTRY), runner.ExperimentConfig.__dict__["from_json"])
    assert after == before
    metrics, spans = t.take()
    assert metrics["runner.run.calls"][0] == 1
    assert metrics["check.frame-bounds.s"][0] > 0
    run_span = next(s for s in spans if t.names[s[0]] == "runner.run")
    total = run_span[2] - run_span[1]
    assert 0 <= metrics["runner.run.self_s"][0] <= total


def _run(cfg):
    from bidiscframes import runner

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return runner.run(runner.ExperimentConfig.from_json(cfg))
        except ValueError:
            return "ValueError"


@pytest.mark.parametrize("cfg, verdict", [
    ({"fixture": "generated-zw", "checks": ["build-module", "mandrekar"]}, "ok"),
    ({"fixture": "inner-zw", "order": [3, 3], "horizon": [6, 6],
      "checks": ["kernel-doubly-commutes", "frame-bounds"]}, "ok"),
    ({"fixture": "generated-zw", "checks": list(ALL_CHECKS)}, "ok"),
    ({"fixture": "inner-z2w", "checks": ["equiv-vector"]}, "known"),
    ({"fixture": "blaschke-half", "checks": ["recover"]}, "known"),
])
def test_expectation_table_on_real_runs(cfg, verdict):
    assert expectations.judge(cfg, _run(cfg)) == verdict


def test_expectation_table_flags_a_wrong_verdict():
    cfg = {"fixture": "generated-zw", "checks": ["mandrekar"]}
    outcome = _run(cfg)
    outcome.results[0].data["verdict"] = True  # Mandrekar: <z, w> cannot pass
    assert expectations.judge(cfg, outcome) == "unexpected"
    assert expectations.judge(cfg, "ValueError") == "unexpected"
