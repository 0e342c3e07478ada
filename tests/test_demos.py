"""The demo scripts call the package's public surface; each must run and
print exactly what it printed when its output was last reviewed."""

import hashlib
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# sha256 of each demo's stdout; every demo is deterministic
STDOUT_SHA256 = {
    "01_expression_kernel.py":
        "2c81675a7b328aa7758d91bc8316dfb267d469db26257d6d65283b35034e95d7",
    "02_exact_symmetries.py":
        "80e4202acb54606a86cc9dc261bd07ea1e17deab1832da447253ab76e8a223e9",
    "03_perturbed_symmetries_and_reduction.py":
        "0d76e0610f0163a332eeaf3aad1b1bde6a87190750bbf41ec38e1152bb790196",
    "04_lagrangian_pipeline.py":
        "bdea29819d5a98a4f6bf09187762d309995d62632d736ae6ae00102a137af7f1",
    "05_trajectories_and_monitors.py":
        "9de99c689006a9b029a110d7109f8e47d002ba3c9e64782e056cd8ca55387bfc",
}


def test_every_demo_runs_to_the_end(capsys):
    scripts = sorted(DEMOS.glob("*.py"))
    assert [s.name for s in scripts] == sorted(STDOUT_SHA256)
    for script in scripts:
        runpy.run_path(str(script), run_name="__main__")
        out = capsys.readouterr().out
        assert out, f"{script.name} printed nothing"
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == STDOUT_SHA256[script.name], f"{script.name} changed its output"
