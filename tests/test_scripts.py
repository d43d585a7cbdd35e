"""Smoke test of the end-to-end experiment script on a tiny fixture."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_synthetic_pipeline.py"


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
