"""Smoke tests of the end-to-end experiment script and the IG-error panel."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_synthetic_pipeline.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_synthetic_pipeline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_synthetic_pipeline(tmp_path, capsys):
    script = _load_script()
    args = script.parse_args(
        ["--out-dir", str(tmp_path), "--n", "90", "--epochs", "1", "--ig-steps", "4"]
    )
    script.run(args)
    work = tmp_path / "work"
    assert (work / "report.md").exists()
    for variant in ("absolute", "disentangled"):
        for fmt in ("csv", "svg"):
            assert (work / f"heatmap_{variant}.{fmt}").exists(), (variant, fmt)
    assert "report:" in capsys.readouterr().out


def test_ig_panel_runs():
    # the panel builds its run config with RunConfig.from_file, so a change
    # to the config API must keep it working
    r = subprocess.run(
        [sys.executable, "bench/ig_panel.py", "--seed", "0", "--examples", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert result["examples"] == 3
    assert len(result["panel"]) == 5
