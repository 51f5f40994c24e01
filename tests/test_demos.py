import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"

# each script must land its punchline
EXPECT = {
    "01_build_and_analyze.py": "causality edges",
    "02_certify_budgets.py": "certified: True",
    "03_hitting_times.py": "-> ok",
    "04_forensic_encoding.py": "decode round-trip ok: True",
    "05_process_tree.py": "x=8",
}


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_clean(script):
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert EXPECT[script.name] in proc.stdout
    assert "VIOLATED" not in proc.stdout


def test_every_demo_is_covered():
    assert sorted(EXPECT) == [d.name for d in DEMOS]


def test_readme_library_quick_start_runs(capsys):
    # a public name removed from the package must not leave README stale
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    lam_star, steps, mean_hit, bad = map(float, capsys.readouterr().out.split())
    assert lam_star == pytest.approx(0.9039, abs=1e-4)
    assert steps > 0
    assert mean_hit == pytest.approx(1.25, abs=0.05)
    assert bad == pytest.approx(0.04)
