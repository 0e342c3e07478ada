"""The demo scripts call the package's public surface; each must run."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_demo_runs_to_the_end(capsys):
    scripts = sorted(DEMOS.glob("*.py"))
    assert len(scripts) == 5
    for script in scripts:
        runpy.run_path(str(script), run_name="__main__")
        assert capsys.readouterr().out, f"{script.name} printed nothing"
