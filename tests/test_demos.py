"""Every demo script, and README's library quickstart and import sketch as written, run
to completion; the package top level, which the quickstart does not import from, binds
only __version__."""

from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


def run_with_src(argv, cwd):
    return run_python(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


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


# Stand-ins for the names README's import sketch takes from a real scan: a
# 50-point cloud and a stream of two 8 x 10 frames.
IMPORT_PRELUDE = """
import numpy as np
rng = np.random.default_rng(0)
mesh_vertices = rng.uniform(0.0, 2.0, (50, 3))
vertex_colors = rng.integers(0, 256, (50, 3))
point_feats = rng.standard_normal((50, 4))
K = np.array([[5.0, 0.0, 4.5], [0.0, 5.0, 3.5], [0.0, 0.0, 1.0]])
bitmap = np.zeros((8, 10), dtype=bool)
bitmap[2:5, 3:7] = True
stream = [(K, np.eye(4), np.full((8, 10), 1.5), [bitmap], [np.ones(4)]) for _ in range(2)]
"""

IMPORT_CHECK = """
frames = scene_io.load_frames("scene/")
assert [f.frame_id for f in frames] == [0, 1] and len(frames[1].masks) == 1
assert frames[0].camera == scene_io.CameraModel(5.0, 5.0, 4.5, 3.5, 10, 8)
assert scene_io.load_scene("scene/").n_points == 50
"""


def test_readme_import_sketch_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Importing real data (sketch)\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_with_src(["-c", IMPORT_PRELUDE + code + IMPORT_CHECK], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_package_top_level_binds_only_version(tmp_path):
    code = ("import sys, part2object\n"
            "print([k for k in vars(part2object) if not k.startswith('_')],\n"
            "      [m for m in sys.modules if m.startswith('part2object.')])")
    proc = run_with_src(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"
