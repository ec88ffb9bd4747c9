"""The README quick start and the demos run as written; its export list, flag table and fit constants match the code."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import phasegate
from phasegate import tomography
from phasegate.cli import _COMMANDS

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_gate_physics.py", "02_coincidence_simulation.py", "03_process_tomography.py", "04_fidelity_report.py"]


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert "F_chi" in capsys.readouterr().out


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # A fresh temp dir of the demo's own: whatever the demo writes there, it removes.
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(scratch))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not list(scratch.iterdir())


def test_readme_lists_the_top_level_exports():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"The top level of `phasegate` exports (.*?)\.\s+Everything", text, re.S).group(1)
    listed = set(re.findall(r"`(\w+)`", sentence))
    assert listed == {*phasegate.__all__, "__version__"}


def test_readme_flag_table_matches_the_parser():
    rows = re.findall(r"^\| `(\w+)` +\| (.*?) \|$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M)
    table = {command: tuple(re.findall(r"`(--[\w-]+)`", flags)) for command, flags in rows}
    assert table == {command: flags for command, (_, _, flags) in _COMMANDS.items()}


def test_readme_fit_constants_match_the_code():
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert int(re.search(r"at most (\d+) steps of the RρR", text).group(1)) == tomography._WARMUP_STEPS
    assert float(re.search(r"within (\S+) nats", text).group(1)) == tomography.GAP_TOL
