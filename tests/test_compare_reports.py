"""tools/compare_reports.py on two report directories of `bdf suite`, and
the config set that tools/report_configs.py writes for it."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bidiscframes.cli import main as bdf
from bidiscframes.fixtures import CATALOG
from bidiscframes.runner import CHECK_NAMES, ExperimentConfig

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_reports = _load_tool("compare_reports")
report_configs = _load_tool("report_configs")


def _suite(tmp_path, name):
    configs = tmp_path / "configs"
    configs.mkdir(exist_ok=True)
    (configs / "zw.json").write_text(json.dumps(
        {"inner": "zw", "order": [3, 3], "checks": ["build-module", "frame-bounds", "decay"],
         "format": "csv"}
    ))
    out = tmp_path / name
    out.mkdir()
    assert bdf(["suite", "--config", str(configs), "--out", str(out / "r")]) == 0
    return out


def test_identical_directories_exit_0_and_a_flipped_verdict_exits_1(tmp_path, capsys):
    a, b = _suite(tmp_path, "a"), _suite(tmp_path, "b")
    assert compare_reports.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "decay" in out and "no difference beyond float values" in out

    summary = b / "r.zw.summary.json"
    data = json.loads(summary.read_text())
    data["checks"][0]["passed"] = False
    summary.write_text(json.dumps(data))
    assert compare_reports.main([str(a), str(b)]) == 1
    assert "checks[0].passed: True != False" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:horizon")  # the blaschke-half run, on purpose
def test_report_configs_writes_configs_the_runner_accepts(tmp_path, capsys):
    out = tmp_path / "configs"
    assert report_configs.main([str(out)]) == 0
    paths = sorted(out.glob("*.json"))
    assert f"wrote {len(paths)} configs" in capsys.readouterr().out
    # per fixture: each check alone (codimension needs an inner), all
    # checks at the default order and at (12, 12); then the ladder, the
    # three larger runs, the complex zero at three orders, the three
    # benchmark configs, four monomial inners at (28, 28), the shift
    # pair at (24, 24), the shift pair at (9, 4) by the riesz check and
    # by the riesz-model fixture, inner-z2w at (28, 28) and at (20, 9)
    # with similarity and equiv-vector, inner-zw and inner-z2w at (8, 8)
    # with horizon (12, 4) and the same two checks, and the constant
    # inner at (3, 3) with all checks
    with_inner = sum(f.spec is not None for f in CATALOG)
    singles = len(CATALOG) * len(CHECK_NAMES) - (len(CATALOG) - with_inner)
    assert len(paths) == singles + 2 * len(CATALOG) + 3 * 6 + 3 + 3 + 3 + 4 + 1 + 2 + 2 + 2 + 1
    for path in paths:
        cfg = ExperimentConfig.from_json(json.loads(path.read_text()))
        assert cfg.fmt == "csv" and cfg.checks
        if "codimension" in cfg.checks:
            assert cfg.inner is not None


def test_a_closed_pipe_ends_the_tool_quietly(tmp_path):
    """A reader that closes the pipe after one line (`| head -1`) ends the
    tool without a traceback; the output, one table row and one field
    line per check, is larger than a pipe holds, so the tool is still
    writing when the pipe closes."""
    a, b = tmp_path / "a", tmp_path / "b"
    for root, value in ((a, 1.0), (b, 2.0)):
        root.mkdir()
        for i in range(1500):
            (root / f"r.c{i}.json").write_text(json.dumps({"x": value}))
    proc = subprocess.Popen([sys.executable, str(_TOOLS / "compare_reports.py"), str(a), str(b)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("check")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.wait(timeout=60)
    proc.stderr.close()
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
