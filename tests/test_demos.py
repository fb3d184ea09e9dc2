"""Every demo script, and README's library quickstart as written, runs to completion;
the package top level, which the quickstart does not import from, binds only __version__."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


def run_with_src(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_with_src([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quickstart (library)\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from part2object" in code
    proc = run_with_src(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_package_top_level_binds_only_version(tmp_path):
    code = ("import sys, part2object\n"
            "print([k for k in vars(part2object) if not k.startswith('_')],\n"
            "      [m for m in sys.modules if m.startswith('part2object.')])")
    proc = run_with_src(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"
