"""tools/compare_reports.py on two report directories of `bdf suite`."""

import importlib.util
import json
from pathlib import Path

from bidiscframes.cli import main as bdf

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _TOOL)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


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
