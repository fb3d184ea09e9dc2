import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from part2object import cli, objectness, parallel, scene_io, superpoints, synth
from part2object.evaluation import evaluate_multi
from part2object.hierarchy import MergeParams
from part2object.objectness import MatchParams
from part2object.superpoints import SuperpointParams
from conftest import spec_json, three_block_spec


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    spec_path = out / "spec.json"
    spec_path.write_text(spec_json(three_block_spec(seed=9)))
    rc = cli.main(["synth", "--spec", str(spec_path), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def raw_scene_dir(tmp_path_factory):
    """The scene_dir scene stored without normals, as a raw scan is."""
    out = tmp_path_factory.mktemp("raw_scene")
    cloud, gt, frames = synth.generate(three_block_spec(seed=9))
    cloud.normals = None
    scene_io.write_scene(out, cloud)
    scene_io.write_frames(out, frames)
    scene_io.write_instances(out / "ground_truth.txt", gt)
    return out


@pytest.fixture(scope="module")
def frameless_scene_dir(tmp_path_factory):
    """The scene_dir scene and its ground truth without frames."""
    out = tmp_path_factory.mktemp("frameless_scene")
    cloud, gt, _ = synth.generate(three_block_spec(seed=9))
    scene_io.write_scene(out, cloud)
    scene_io.write_instances(out / "ground_truth.txt", gt)
    return out


def tree_bytes(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_info(capsys):
    assert cli.main(["info"]) == 0
    text = capsys.readouterr().out
    assert "P2O1" in text and "P2OF" in text and "P2OM" in text


def test_info_json(capsys):
    assert cli.main(["info", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["formats"]["points.p2o"] == "P2O1"


def test_info_json_validates_against_schema(capsys):
    import jsonschema

    schema = {
        "type": "object",
        "required": ["formats"],
        "properties": {
            "formats": {
                "type": "object",
                "additionalProperties": {"type": "string"},
                "minProperties": 5,
            }
        },
    }
    assert cli.main(["info", "--json"]) == 0
    jsonschema.validate(json.loads(capsys.readouterr().out), schema)


def test_synth_outputs_loadable(scene_dir):
    cloud = scene_io.load_scene(scene_dir)
    frames = scene_io.load_frames(scene_dir)
    gt = scene_io.load_instances(scene_dir / "ground_truth.txt", n_points=cloud.n_points)
    assert cloud.semantic_features is not None
    assert len(frames) == 4
    assert len(gt) == 3


def test_stagewise_equals_run(scene_dir, raw_scene_dir, frameless_scene_dir, tmp_path):
    for scene in (scene_dir, raw_scene_dir, frameless_scene_dir):
        stage = tmp_path / scene.name / "stage"
        stage.mkdir(parents=True)
        assert cli.main(["superpoints", "--scene", str(scene),
                         "--out", str(stage / "sp.json")]) == 0
        assert cli.main(["priors", "--scene", str(scene),
                         "--out", str(stage / "priors.json")]) == 0
        assert cli.main(["cluster", "--scene", str(scene),
                         "--superpoints", str(stage / "sp.json"),
                         "--priors", str(stage / "priors.json"),
                         "--K", "0.6", "--T", "0.05",
                         "--out", str(stage / "hierarchy.json")]) == 0
        assert cli.main(["extract", "--hierarchy", str(stage / "hierarchy.json"),
                         "--min-object-points", "30",
                         "--objects", str(stage / "objects.txt"),
                         "--parts", str(stage / "parts.txt")]) == 0
        assert cli.main(["eval", "--pred", str(stage / "objects.txt"),
                         "--gt", str(scene / "ground_truth.txt"),
                         "--out", str(stage / "report.json")]) == 0

        full = tmp_path / scene.name / "full"
        assert cli.main(["run", "--scene", str(scene), "--out", str(full),
                         "--min-object-points", "30"]) == 0

        for name in ["priors.json", "hierarchy.json", "objects.txt", "parts.txt",
                     "report.json"]:
            assert (stage / name).read_bytes() == (full / name).read_bytes(), name
        # The super-points are stored once: layer 0 of a hierarchy file.
        sp = json.loads((stage / "sp.json").read_text())
        assert sp["merge_log"] == [] and len(sp["layers"]) == 1
        assert sp["layers"] == json.loads((full / "hierarchy.json").read_text())["layers"][:1]
        assert not (full / "superpoints.json").exists()
        # Any hierarchy file holds super-points: re-clustering a run's rewrites it.
        assert cli.main(["cluster", "--scene", str(scene),
                         "--superpoints", str(full / "hierarchy.json"),
                         "--priors", str(full / "priors.json"),
                         "--out", str(stage / "again.json")]) == 0
        assert (stage / "again.json").read_bytes() == (full / "hierarchy.json").read_bytes()
    assert (full / "priors.json").read_text() == "[]\n"


def test_only_the_superpoints_stage_estimates_normals(raw_scene_dir, tmp_path, monkeypatch):
    scene = str(raw_scene_dir)
    sp, priors, h = (str(tmp_path / name) for name in ("sp.json", "priors.json", "h.json"))
    calls = []
    estimate = scene_io.estimate_normals
    monkeypatch.setattr(scene_io, "estimate_normals",
                        lambda *a, **kw: calls.append(1) or estimate(*a, **kw))
    assert cli.main(["superpoints", "--scene", scene, "--out", sp]) == 0
    assert len(calls) >= 1  # the seeds, then each wave's contested voxels
    superpoint_calls = len(calls)
    assert cli.main(["priors", "--scene", scene, "--out", priors]) == 0
    assert cli.main(["cluster", "--scene", scene, "--superpoints", sp,
                     "--priors", priors, "--out", h]) == 0
    assert cli.main(["extract", "--hierarchy", h, "--objects", str(tmp_path / "o.txt"),
                     "--parts", str(tmp_path / "p.txt")]) == 0
    assert len(calls) == superpoint_calls


def test_run_reports_perfect_ap_on_easy_scene(scene_dir, tmp_path):
    out = tmp_path / "run"
    rc = cli.main(["run", "--scene", str(scene_dir), "--out", str(out),
                   "--min-object-points", "30"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ap50"] == 1.0
    assert (out / "effective_config.json").exists()
    cfg = json.loads((out / "effective_config.json").read_text())
    assert cfg["T"] == 0.05 and cfg["tau"] == 0.3 and cfg["K"] == 0.6
    assert cfg["min_object_points"] == 30  # flag override materialized


def test_run_twice_is_byte_identical(scene_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--scene", str(scene_dir), "--out", str(out_a),
                     "--min-object-points", "30"]) == 0
    assert cli.main(["run", "--scene", str(scene_dir), "--out", str(out_b),
                     "--min-object-points", "30"]) == 0
    ta, tb = tree_bytes(out_a), tree_bytes(out_b)
    assert list(ta) == list(tb)
    for name in ta:
        assert ta[name] == tb[name], name


def test_a_rerun_that_finds_no_objects_equals_a_fresh_run(scene_dir, tmp_path):
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert cli.main(["run", "--scene", str(scene_dir), "--out", str(rerun),
                     "--min-object-points", "30"]) == 0
    assert any(path.is_dir() for path in rerun.rglob("*_masks"))
    # More points per object than the scene holds: no objects, so no parts.
    for out in (rerun, fresh):
        assert cli.main(["run", "--scene", str(scene_dir), "--out", str(out),
                         "--min-object-points", str(10**9)]) == 0
    assert tree_bytes(rerun) == tree_bytes(fresh)
    assert ([p.relative_to(rerun) for p in sorted(rerun.rglob("*"))]
            == [p.relative_to(fresh) for p in sorted(fresh.rglob("*"))])


def test_missing_priors_with_require_flag_fails_stage(tmp_path):
    bare = tmp_path / "bare"
    rng = np.random.default_rng(0)
    cloud = scene_io.SceneCloud(
        positions=rng.random((50, 3)).astype(np.float32),
        semantic_features=rng.random((50, 4)).astype(np.float32),
    )
    scene_io.write_scene(bare, cloud)  # no frames at all
    rc = cli.main(["run", "--scene", str(bare), "--out", str(tmp_path / "o"),
                   "--require-priors"])
    assert rc == cli.EXIT_STAGE_FAILURE
    # The missing frames are found before the launch: nothing is written.
    assert not (tmp_path / "o").exists()


def test_run_without_frames_still_succeeds(tmp_path, caplog):
    bare = tmp_path / "bare2"
    rng = np.random.default_rng(1)
    cloud = scene_io.SceneCloud(
        positions=rng.random((50, 3)).astype(np.float32),
        semantic_features=rng.random((50, 4)).astype(np.float32),
    )
    scene_io.write_scene(bare, cloud)
    rc = cli.main(["run", "--scene", str(bare), "--out", str(tmp_path / "o2"),
                   "--min-object-points", "1"])
    assert rc == 0
    assert json.loads((tmp_path / "o2" / "priors.json").read_text()) == []


def test_run_on_a_missing_scene_writes_nothing(tmp_path):
    out = tmp_path / "run"
    proc = run_p2o("run", "--scene", str(tmp_path / "nope"), "--out", str(out))
    assert proc.returncode == cli.EXIT_BAD_INPUT
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: no scene: "), lines
    assert "not found" in lines[0]
    assert not out.exists()


def test_explicit_missing_frames_dir_is_bad_input(scene_dir, tmp_path, capsys):
    missing = str(tmp_path / "no_frames")
    out = tmp_path / "run"
    err = assert_bad_input(["run", "--scene", str(scene_dir), "--frames", missing,
                            "--out", str(out)], capsys)
    assert "no frames directory" in err
    assert not out.exists()
    priors = tmp_path / "priors.json"
    assert_bad_input(["priors", "--scene", str(scene_dir), "--frames", missing,
                      "--out", str(priors)], capsys)
    assert not priors.exists()


def test_explicit_missing_gt_file_is_bad_input(scene_dir, tmp_path):
    out = tmp_path / "run"
    proc = run_p2o("run", "--scene", str(scene_dir), "--gt", str(tmp_path / "nope.txt"),
                   "--out", str(out))
    assert proc.returncode == cli.EXIT_BAD_INPUT
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: no ground truth: "), lines
    assert "not found" in lines[0]
    assert not out.exists()


def test_one_gt_for_several_scenes_is_bad_input(scene_dir, tmp_path):
    # One manifest cannot be every scene's ground truth.
    out = tmp_path / "run"
    proc = run_p2o("run", "--scene", str(scene_dir), "--scene", str(scene_dir),
                   "--gt", str(scene_dir / "ground_truth.txt"), "--out", str(out))
    assert proc.returncode == cli.EXIT_BAD_INPUT
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --gt takes one --scene"), lines
    assert not out.exists()


def test_one_frames_dir_for_several_scenes_is_bad_input(scene_dir, tmp_path):
    # One frames directory cannot hold every scene's frames.
    out = tmp_path / "run"
    proc = run_p2o("run", "--scene", str(scene_dir), "--scene", str(scene_dir),
                   "--frames", str(scene_dir), "--out", str(out))
    assert proc.returncode == cli.EXIT_BAD_INPUT
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --frames takes one --scene"), lines
    assert not out.exists()


def fail(message, delay=0.0):
    def raise_(*args, **kwargs):
        time.sleep(delay)
        raise RuntimeError(message)
    return raise_


@pytest.mark.parametrize("workers", [1, 2])
def test_a_superpoint_failure_beside_working_priors_is_one_line(
        workers, scene_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(parallel, "cpu_workers", lambda: workers)
    monkeypatch.setattr(superpoints, "build_superpoints", fail("boom"))
    out = tmp_path / "run"
    assert cli.main(["run", "--scene", str(scene_dir), "--out", str(out)]) == \
        cli.EXIT_STAGE_FAILURE
    assert capsys.readouterr().err.splitlines() == ["stage=superpoints: boom"]
    assert not (out / "hierarchy.json").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_when_both_input_stages_fail_the_superpoint_failure_is_reported(
        workers, scene_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(parallel, "cpu_workers", lambda: workers)
    # The priors fail first in time; the report still names the super-points.
    monkeypatch.setattr(superpoints, "build_superpoints", fail("sp boom", delay=0.2))
    monkeypatch.setattr(objectness, "build_tracks", fail("priors boom"))
    assert cli.main(["run", "--scene", str(scene_dir), "--out", str(tmp_path / "run")]) == \
        cli.EXIT_STAGE_FAILURE
    assert capsys.readouterr().err.splitlines() == ["stage=superpoints: sp boom"]


def test_id_array_artifacts_are_compact_json(scene_dir, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run", "--scene", str(scene_dir), "--out", str(out)]) == 0
    assert cli.main(["superpoints", "--scene", str(scene_dir),
                     "--out", str(tmp_path / "sp.json")]) == 0
    assert cli.main(["priors", "--scene", str(scene_dir),
                     "--out", str(tmp_path / "priors.json")]) == 0
    for path in (out / "hierarchy.json", tmp_path / "sp.json", out / "priors.json",
                 tmp_path / "priors.json"):
        text = path.read_text()
        assert json.dumps(json.loads(text), separators=(",", ":")) + "\n" == text, path
    assert json.loads((out / "priors.json").read_text())
    for name in ("effective_config.json", "report.json"):
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name


def test_bad_scene_dir_is_bad_input(tmp_path):
    rc = cli.main(["superpoints", "--scene", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "x.json")])
    assert rc == cli.EXIT_BAD_INPUT


def test_bad_config_file_is_bad_input(scene_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_such_option": 3}')
    rc = cli.main(["superpoints", "--scene", str(scene_dir),
                   "--out", str(tmp_path / "x.json"), "--config", str(cfg)])
    assert rc == cli.EXIT_BAD_INPUT


def test_config_file_with_flag_override(scene_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"min_object_points": 10, "K": 0.5}')
    out = tmp_path / "ovr"
    rc = cli.main(["run", "--scene", str(scene_dir), "--out", str(out),
                   "--config", str(cfg), "--min-object-points", "30"])
    assert rc == 0
    eff = json.loads((out / "effective_config.json").read_text())
    assert eff["K"] == 0.5               # from file
    assert eff["min_object_points"] == 30  # flag wins


def test_multi_scene_run_pools_report(scene_dir, tmp_path):
    out = tmp_path / "multi"
    rc = cli.main(["run", "--scene", str(scene_dir), "--scene", str(scene_dir),
                   "--out", str(out), "--min-object-points", "30"])
    assert rc == 0
    pooled = json.loads((out / "report.json").read_text())
    assert pooled["ap50"] == 1.0
    # duplicate scene names get distinct output subdirectories
    assert (out / scene_dir.name / "hierarchy.json").exists()
    assert (out / f"{scene_dir.name}_1" / "hierarchy.json").exists()


@pytest.fixture(scope="module")
def raw_scene_pair(tmp_path_factory):
    """Two scenes (seeds 9 and 10) stored without normals, each with its
    frames and ground_truth.txt."""
    root = tmp_path_factory.mktemp("raw_pair")
    scenes = []
    for seed in (9, 10):
        cloud, gt, frames = synth.generate(three_block_spec(seed=seed))
        cloud.normals = None  # the run estimates them, as for a raw scan
        scenes.append(root / f"scene{seed}")
        scene_io.write_scene(scenes[-1], cloud)
        scene_io.write_frames(scenes[-1], frames)
        scene_io.write_instances(scenes[-1] / "ground_truth.txt", gt)
    return scenes


def run_scenes(scenes, out):
    argv = ["run", "--out", str(out), "--min-object-points", "30"]
    for scene in scenes:
        argv += ["--scene", str(scene)]
    assert cli.main(argv) == 0
    return out


@pytest.fixture(scope="module")
def pair_run(raw_scene_pair, tmp_path_factory):
    """The --out of one `p2o run` over both scenes of raw_scene_pair."""
    return run_scenes(raw_scene_pair, tmp_path_factory.mktemp("pair_run") / "out")


def test_run_jobs_do_not_change_artifacts(raw_scene_pair, tmp_path, monkeypatch):
    # The scenes run one after another. Small blocks give each scene's
    # normals estimate several blocks: fully serial on one CPU, and on two or
    # three split over the CPUs that the priors do not hold.
    monkeypatch.setattr(scene_io, "_NORMALS_BLOCK", 2048)
    trees = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "cpu_workers", lambda: workers)
        trees.append(tree_bytes(run_scenes(raw_scene_pair, tmp_path / f"workers{workers}")))
    serial = trees[0]
    assert len(serial) > 10 and "report.json" in serial
    for threaded in trees[1:]:
        assert list(serial) == list(threaded)
        for name in serial:
            assert serial[name] == threaded[name], name


def test_each_scene_of_a_multi_scene_run_equals_its_one_scene_run(
        raw_scene_pair, pair_run, tmp_path):
    for scene in raw_scene_pair:
        want = tree_bytes(run_scenes([scene], tmp_path / scene.name))
        assert (pair_run / "effective_config.json").read_bytes() == \
            want.pop("effective_config.json")
        got = tree_bytes(pair_run / scene.name)
        assert len(got) > 5 and list(got) == list(want)
        for name in got:
            assert got[name] == want[name], name


def test_a_multi_scene_report_equals_eval_over_its_scenes(raw_scene_pair, pair_run, tmp_path):
    # Several processes, each running a share of the scenes, pool to the
    # same report through `p2o eval`.
    argv = ["eval", "--out", str(tmp_path / "report.json")]
    for scene in raw_scene_pair:
        argv += ["--pred", str(pair_run / scene.name / "objects.txt"),
                 "--gt", str(scene / "ground_truth.txt")]
    assert cli.main(argv) == 0
    assert (tmp_path / "report.json").read_bytes() == (pair_run / "report.json").read_bytes()


@pytest.mark.parametrize("n_scenes", [1, 2], ids=["one-scene", "two-scene"])
def test_a_scene_without_features_is_bad_input_before_anything_is_written(
        n_scenes, scene_dir, tmp_path, capsys):
    # Of two scenes, only the second lacks features.f32.
    bare = tmp_path / "bare"
    shutil.copytree(scene_dir, bare)
    (bare / "features.f32").unlink()
    line = f"error: no semantic features: {bare / 'features.f32'} not found"
    out = tmp_path / "run"
    argv = ["run", "--out", str(out)]
    for scene in [scene_dir, bare][-n_scenes:]:
        argv += ["--scene", str(scene)]
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()
    assert cli.main(["cluster", "--scene", str(bare), "--superpoints", str(tmp_path / "sp.json"),
                     "--out", str(out)]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err.splitlines() == [line]


def test_run_artifacts_do_not_depend_on_the_worker_count(raw_scene_dir, tmp_path, monkeypatch):
    # Small blocks split the normals and every super-point wave step of two
    # or more items, so each count runs its own block layout.
    monkeypatch.setattr(scene_io, "_NORMALS_BLOCK", 2048)
    monkeypatch.setattr(superpoints, "_WAVE_BLOCK", 1)
    trees = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "cpu_workers", lambda: workers)
        out = tmp_path / f"workers{workers}"
        assert cli.main(["run", "--scene", str(raw_scene_dir), "--out", str(out),
                         "--min-object-points", "30"]) == 0
        trees.append(tree_bytes(out))
    assert len(trees[0]) > 5 and "report.json" in trees[0]
    for tree in trees[1:]:
        assert list(tree) == list(trees[0])
        for name in tree:
            assert tree[name] == trees[0][name], name


@pytest.mark.parametrize("flag", [
    ("--voxel-size", "0"), ("--tau", "2"), ("--K", "0"), ("--T", "-1"),
    ("--max-layers", "0"), ("--min-object-points", "0"), ("--normals-k", "2"),
    ("--min-track-frames", "0"), ("--min-track-points", "0"),
    ("--w-color", "-1"),
])
def test_run_rejects_a_bad_tunable_before_writing(flag, tmp_path, capsys):
    # No normals on disk, so --normals-k would reach estimate_normals.
    cloud = synth.generate(three_block_spec(points_per_m2=300.0))[0]
    cloud.normals = None
    scene = tmp_path / "scene"
    scene_io.write_scene(scene, cloud)
    out = tmp_path / "run"
    err = assert_bad_input(["run", "--scene", str(scene), "--out", str(out), *flag], capsys)
    # The message names the key as the user typed it.
    assert err.startswith(f"error: {flag[0][2:].replace('-', '_')} ")
    assert not out.exists()


def test_bad_tunable_in_config_file_stops_run_before_writing(scene_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"inside_frac": 0.05}')
    out = tmp_path / "run"
    assert_bad_input(["run", "--scene", str(scene_dir), "--out", str(out),
                      "--config", str(cfg)], capsys)
    assert not out.exists()


def test_eval_with_out_of_range_point_id_is_bad_input(tmp_path):
    (tmp_path / "m.txt").write_text("99999999999999999999\n")
    for name in ("p.txt", "g.txt"):
        (tmp_path / name).write_text("m.txt object 1.0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "part2object", "eval", "--pred", str(tmp_path / "p.txt"),
         "--gt", str(tmp_path / "g.txt"), "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == cli.EXIT_BAD_INPUT
    assert "point index out of range" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_report_equals_evaluate_multi_of_the_written_sets(tmp_path):
    rng = np.random.default_rng(17)
    pairs, argv = [], ["eval"]
    for s in range(3):
        labelled = rng.permutation(600)[:450]
        gt = [np.sort(part) for part in np.array_split(labelled, 4)]
        preds = [np.unique(np.concatenate([ids[rng.random(ids.size) < 0.8],
                                           rng.choice(600, 15, replace=False)]))
                 for ids in gt[: 3 - s % 2]]
        preds.append(np.sort(rng.choice(600, 60, replace=False)))
        pair = (scene_io.InstanceSet([scene_io.Instance(ids, float(rng.random()))
                                      for ids in preds]),
                scene_io.InstanceSet([scene_io.Instance(ids) for ids in gt]))
        for flag, name, instances in zip(("--pred", "--gt"), ("pred.txt", "gt.txt"), pair):
            scene_io.write_instances(tmp_path / f"scene{s}" / name, instances)
            argv += [flag, str(tmp_path / f"scene{s}" / name)]
        pairs.append(pair)
    assert cli.main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    cli.write_json(tmp_path / "want.json", evaluate_multi(pairs).to_dict())
    got = (tmp_path / "report.json").read_bytes()
    assert got == (tmp_path / "want.json").read_bytes()
    assert 0.0 < json.loads(got)["ap25"] < 1.0


def eval_argv(root, scenes):
    """p2o eval argv over scenes, each (prediction id lists, ground-truth id lists)."""
    argv = ["eval"]
    for s, (preds, gt) in enumerate(scenes):
        for flag, name, lists in (("--pred", "pred.txt", preds), ("--gt", "gt.txt", gt)):
            path = root / f"scene{s}" / name
            scene_io.write_instances(path, scene_io.InstanceSet(
                [scene_io.Instance(np.asarray(ids), 1.0 - 0.1 * k) for k, ids in enumerate(lists)]))
            argv += [flag, str(path)]
    return argv + ["--out", str(root / "report.json")]


def test_eval_of_sparse_huge_ids_builds_no_table_over_their_span(tmp_path):
    # scene 0 labels ids 0 and 99,999,999,999,999,999; scene 1 a block of 1,000
    # ids and one id 10**7 past it, a span whose table would take 80 MB
    def scenes(huge, far):
        block = list(range(1000))
        return [([[0, huge], [huge]], [[0], [huge]]),
                ([block[:900], block[500:] + [far]], [block[:600], block[600:] + [far]])]

    sparse = eval_argv(tmp_path / "sparse", scenes(99_999_999_999_999_999, 10**7))
    dense = eval_argv(tmp_path / "dense", scenes(1, 1000))
    tracemalloc.start()
    try:
        assert cli.main(sparse) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert cli.main(dense) == 0
    got = (tmp_path / "sparse" / "report.json").read_bytes()
    assert got == (tmp_path / "dense" / "report.json").read_bytes()
    assert 0.0 < json.loads(got)["map"] < 1.0


def test_overlapping_ground_truth_names_its_file(tmp_path):
    disjoint = ([range(6)], [range(0, 5), range(5, 9)])
    overlapping = ([range(6)], [range(0, 5), range(4, 9)])
    argv = eval_argv(tmp_path, [disjoint, overlapping, disjoint])
    proc = run_p2o(*argv)
    assert proc.returncode == cli.EXIT_BAD_INPUT
    assert proc.stderr.splitlines() == [
        f"error: {tmp_path / 'scene1' / 'gt.txt'}: ground-truth instances must be "
        f"pairwise disjoint: point id 4 is in more than one"]
    assert not (tmp_path / "report.json").exists()


def test_pipeline_defaults_match_documented_values():
    sp, match, merge = SuperpointParams(), MatchParams(), MergeParams()
    assert merge.T == 0.05
    assert match.tau == 0.3
    assert merge.K == 0.6
    assert sp.voxel_size == 0.02
    assert merge.inside_frac == 0.9 and merge.outside_frac == 0.1
    assert merge.max_layers == 10 and merge.min_object_points == 50


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_table(header):
    """The body rows of the README table whose header row starts with `header`."""
    lines = README.read_text().splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_tables_name_every_tunable_and_stage_flag():
    # Adding or deleting a tunable must update both README tables.
    fields = {cls.__name__: sorted(f.name for f in dataclasses.fields(cls))
              for cls in cli._PARAM_CLASSES}
    total = sum(map(len, fields.values()))
    documented = {}
    for first, *_ in readme_table("| parameter |"):
        names = [n.strip() for n in re.split("[,/]", first.replace("`", "").strip("*"))]
        if first.startswith("**"):
            documented[names[0]] = group = []
        else:
            group += names
    assert {cls: sorted(names) for cls, names in documented.items()} == fields
    assert f"There are {total}, and no others." in README.read_text()

    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    tunable_flags = {name: [a.option_strings[0] for a in sub._actions
                            if a.dest in cli._CONFIG_FIELDS]
                     for name, sub in commands.items()}
    table = {command.strip("`"): flags for command, flags in readme_table("| command |")}
    assert set(table) == {name for name, flags in tunable_flags.items() if flags}
    for command, flags in table.items():
        if command == "run":
            assert flags == f"all {total}" and len(tunable_flags["run"]) == total
        else:
            assert flags.strip("`").split() == tunable_flags[command], command


def test_run_writes_exactly_the_artifacts_the_readme_lists(scene_dir, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run", "--scene", str(scene_dir), "--out", str(out)]) == 0
    written = {p.name + "/" * p.is_dir() for p in out.iterdir()}
    documented = {name.strip().strip("`")
                  for first, *_ in readme_table("| `p2o run --out` holds |")
                  for name in first.split(",")}
    assert written == documented


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "part2object", "info"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "P2O1" in proc.stdout


def assert_bad_input(argv, capsys):
    """The command exits 2 with a one-line error and no traceback."""
    assert cli.main(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.fixture(scope="module")
def scene_points(scene_dir):
    return scene_io.load_scene(scene_dir).n_points


def one_layer_hierarchy(sets, n_points):
    """The dict of a super-point file, as `p2o superpoints` writes it."""
    return {"schema": "p2o.hierarchy/1", "n_points": n_points,
            "layers": [{"clusters": [{"points": ids} for ids in sets]}], "merge_log": []}


@pytest.mark.parametrize("mutation", ["out_of_range", "overlap", "gap", "empty", "not_a_list",
                                      "fractional", "nested", "ragged", "n_points",
                                      "bare_array"])
def test_cluster_rejects_superpoints_that_do_not_partition(
        mutation, scene_dir, scene_points, tmp_path, capsys):
    n = n_points = scene_points
    sets = [list(range(0, n // 2)), list(range(n // 2, n))]
    if mutation == "out_of_range":
        sets[1].append(n)
    elif mutation == "overlap":
        sets[1] += [0, 1, 2]
    elif mutation == "gap":
        sets[1].pop()
    elif mutation == "empty":
        sets.append([])
    elif mutation == "fractional":
        sets[0][0] = 0.5
    elif mutation == "nested":
        sets[0] = [sets[0]]
    elif mutation == "ragged":
        sets[0][0] = [0]
    elif mutation == "not_a_list":
        sets[0] = n
    elif mutation == "n_points":
        # A partition of one more point than the scene has.
        sets[1].append(n)
        n_points = n + 1
    data = sets if mutation == "bare_array" else one_layer_hierarchy(sets, n_points)
    path = tmp_path / "sp.json"
    path.write_text(json.dumps(data))
    err = assert_bad_input(["cluster", "--scene", str(scene_dir), "--superpoints", str(path),
                            "--out", str(tmp_path / "h.json")], capsys)
    assert err.startswith(f"error: {path}: "), err
    if mutation == "n_points":
        assert f"n_points is {n + 1}, but scene {scene_dir} has {n} points" in err
    elif mutation == "bare_array":
        assert "must be a JSON object" in err
    else:
        assert "layer 0" in err or "malformed hierarchy" in err
    assert not (tmp_path / "h.json").exists()


HIERARCHY = {
    "schema": "p2o.hierarchy/1",
    "n_points": 3,
    "layers": [{"clusters": [{"points": [0, 2]}, {"points": [1]}]},
               {"clusters": [{"children": [0, 1]}]}],
    "merge_log": [{"accepted": [[0, 1]], "rejected_stop": [], "n_candidates": 1}],
}


def extract_argv(tmp_path, data):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(data))
    return ["extract", "--hierarchy", str(path), "--min-object-points", "1",
            "--objects", str(tmp_path / "o.txt"), "--parts", str(tmp_path / "p.txt")]


def test_extract_reads_a_hand_written_hierarchy(tmp_path):
    assert cli.main(extract_argv(tmp_path, HIERARCHY)) == 0
    objects = scene_io.load_instances(tmp_path / "o.txt")
    parts = scene_io.load_instances(tmp_path / "p.txt")
    assert [o.point_ids.tolist() for o in objects.instances] == [[0, 1, 2]]
    assert [p.point_ids.tolist() for p in parts.instances] == [[0, 2], [1]]


@pytest.mark.parametrize("mutation", [
    "no_layers", "no_clusters", "child_out_of_range", "child_twice", "child_missing",
    "empty_children", "point_out_of_range", "point_twice", "wrong_n_points",
    "fractional_point", "nested_points", "fractional_child", "nested_children",
    "fractional_n_points", "string_n_points", "bool_n_points", "fractional_n_candidates",
    "unknown_key", "two_log_entries", "string_pair", "pair_past_layer", "reversed_pair",
    "boolean_pair", "negative_n_candidates",
])
def test_extract_rejects_malformed_hierarchy(mutation, tmp_path, capsys):
    data = json.loads(json.dumps(HIERARCHY))
    layer0, layer1 = data["layers"][0]["clusters"], data["layers"][1]["clusters"]
    if mutation == "no_layers":
        del data["layers"]
    elif mutation == "no_clusters":
        del data["layers"][1]["clusters"]
    elif mutation == "child_out_of_range":
        layer1[0]["children"] = [0, 1, 2]
    elif mutation == "child_twice":
        layer1[0]["children"] = [0, 1, 1]
    elif mutation == "child_missing":
        layer1[0]["children"] = [0]
    elif mutation == "empty_children":
        layer1.append({"children": []})
    elif mutation == "point_out_of_range":
        layer0[1]["points"] = [1, 3]
    elif mutation == "point_twice":
        layer0[1]["points"] = [1, 2]
    elif mutation == "fractional_point":
        layer0[0]["points"] = [0.5, 2]
    elif mutation == "nested_points":
        layer0[0]["points"] = [[0, 2]]
    elif mutation == "fractional_child":
        layer1[0]["children"] = [0.5, 1]
    elif mutation == "nested_children":
        layer1[0]["children"] = [[0, 1]]
    elif mutation == "fractional_n_points":
        data["n_points"] = 3.9
    elif mutation == "string_n_points":
        data["n_points"] = "3"
    elif mutation == "bool_n_points":
        data["n_points"] = True
    elif mutation == "fractional_n_candidates":
        data["merge_log"][0]["n_candidates"] = 1.7
    elif mutation == "unknown_key":
        data["features"] = []
    elif mutation == "two_log_entries":
        data["merge_log"].append(dict(data["merge_log"][0]))
    elif mutation == "string_pair":
        data["merge_log"][0]["accepted"] = ["ab"]
    elif mutation == "pair_past_layer":
        data["merge_log"][0]["accepted"] = [[7, 9]]
    elif mutation == "reversed_pair":
        data["merge_log"][0]["accepted"] = [[1, 0]]
    elif mutation == "boolean_pair":
        data["merge_log"][0]["rejected_stop"] = [[False, True]]
    elif mutation == "negative_n_candidates":
        data["merge_log"][0]["n_candidates"] = -4
    else:
        data["n_points"] = 4
    err = assert_bad_input(extract_argv(tmp_path, data), capsys)
    if mutation in ("fractional_n_points", "string_n_points", "bool_n_points",
                    "fractional_n_candidates"):
        assert f"{tmp_path / 'h.json'}: {mutation.split('_', 1)[1]}=" in err
    elif mutation in ("two_log_entries", "string_pair", "pair_past_layer", "reversed_pair",
                      "boolean_pair", "negative_n_candidates"):
        assert err.startswith(f"error: {tmp_path / 'h.json'}: ") and "merge_log" in err, err


# "N" stands for the scene's point count, the first id past its points.
@pytest.mark.parametrize("priors", [
    {"point_ids": [0, 1], "frame_span": 2},
    [[0, 1]],
    [{"frame_span": 2}],
    [{"point_ids": [0, 1], "label": "chair"}],
    [{"min": [0.0, 0.0, 0.0], "max": [1.0, 1.0, 1.0], "track_size": 2, "frame_span": 2}],
    [{"point_ids": [0, 1.5]}],
    [{"point_ids": [0, True]}],
    [{"point_ids": [[0, 1]]}],
    [{"point_ids": []}],
    [{"point_ids": [1, 0]}],
    [{"point_ids": [0, 0, 1]}],
    [{"point_ids": [-1, 0]}],
    [{"point_ids": [0, "N"]}],
])
def test_cluster_rejects_malformed_priors(priors, scene_dir, scene_points, tmp_path, capsys):
    sp = tmp_path / "sp.json"
    assert cli.main(["superpoints", "--scene", str(scene_dir), "--out", str(sp)]) == 0
    path = tmp_path / "priors.json"
    text = json.dumps(priors)
    path.write_text(text.replace('"N"', str(scene_points)))
    err = assert_bad_input(["cluster", "--scene", str(scene_dir), "--superpoints", str(sp),
                            "--priors", str(path), "--out", str(tmp_path / "h.json")], capsys)
    assert err.startswith(f"error: {path}: "), err
    if '"N"' in text:
        assert f"point id {scene_points} " in err and str(scene_dir) in err, err


@pytest.mark.parametrize("text", [
    '{"K": true}', '{"K": "0.5"}',
    '{"min_object_points": 10.7}', '{"min_object_points": false}', '{"depth_tol": null}',
    "3", "[1, 2]",
])
def test_config_values_are_checked_not_coerced(text, scene_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert_bad_input(["superpoints", "--scene", str(scene_dir),
                      "--out", str(tmp_path / "x.json"), "--config", str(cfg)], capsys)


@pytest.mark.parametrize("spec, key", [
    ({"allow_similar_features": "false"}, "allow_similar_features"),
    ({"feature_dim": 16.7}, "feature_dim"),
    ({"seed": 2.9}, "seed"),
    ({"seeds": 3}, "seeds"),
    ({"objects": [{"yaw": "0.5"}]}, "yaw"),
    ({"objects": [{"colour": [1.0, 0.0, 0.0]}]}, "colour"),
    ({"camera_model": {"width": 160.5}}, "width"),
    ({"camera_model": {"fx": "140"}}, "fx"),
    ({"objects": 5}, "objects"),
    ({"cameras": 5}, "cameras"),
    ({"room": 5}, "room"),
    ({"room": [4.0, 4.0, "high"]}, "room"),
    ({"objects": [{"size": "big"}]}, "size"),
    ({"objects": [{"center": 5}]}, "center"),
    ({"objects": [{"color": [1.0, 0.0]}]}, "color"),
    ({"camera_model": {"width": 0}}, "width"),
    ({"camera_model": {"height": 0}}, "height"),
    ({"camera_model": {"width": -5}}, "width"),
    ({"camera_model": {"fx": 0}}, "fx"),
    ({"camera_model": {"fx": -140}}, "fx"),
    ({"objects": [{}], "points_per_m2": -5}, "points_per_m2"),
    ({"room": [4.0, 4.0, 1.0], "points_per_m2": 0}, "points_per_m2"),
    ({"objects": [{"size": [-1.0, 0.5, 0.5]}]}, "size"),
    ({"objects": [{"size": [0.5, 0.0, 0.5]}]}, "size"),
    ({}, "a spec needs at least one object or a room"),
    ({"objects": [{"feature": "x"}]}, "objects[0]: feature"),
    ({"room": [2, 2, 1], "feature_dim": 0}, "feature_dim"),
    ({"objects": [{}], "feature_noise": -1}, "feature_noise"),
    ({"objects": [{}], "position_jitter": -0.5}, "position_jitter"),
    ({"objects": [{}], "cameras": [[1, 2, 3]]}, "cameras[0]"),
    ({"objects": [{}, {}], "feature_dim": 2}, "2 objects need auto features"),
    ({"objects": [{"feature": [1.0, 0.0]}]}, "object 0: feature has dim"),
    ({"objects": [{"feature": [1.0] + [0.0] * 15}, {"feature": [0.99, 0.1] + [0.0] * 14}]},
     "objects 0 and 1 have feature similarity"),
    ({"objects": [{}], "room": [4, 4, -1]}, "room"),
    ({"objects": [{}], "room": [-4, 4, 1]}, "room"),
    ({"objects": [{}], "room": [0, 0, 0]}, "room"),
])
def test_synth_spec_values_are_checked_not_coerced(spec, key, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    err = assert_bad_input(["synth", "--spec", str(path), "--out", str(out)], capsys)
    assert err.startswith(f"error: {path}: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--spec", "--superpoints", "--priors", "--hierarchy",
                                  "--config"])
def test_a_json_syntax_error_names_the_file(flag, scene_dir, scene_points, tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text('{"seed": 1,')
    (tmp_path / "sp.json").write_text(
        json.dumps(one_layer_hierarchy([list(range(scene_points))], scene_points)))
    out = str(tmp_path / "out")
    cluster = ["cluster", "--scene", str(scene_dir), "--out", out]
    argv = {
        "--spec": ["synth", "--spec", bad, "--out", out],
        "--superpoints": cluster + ["--superpoints", bad],
        "--priors": cluster + ["--superpoints", str(tmp_path / "sp.json"), "--priors", bad],
        "--hierarchy": ["extract", "--hierarchy", bad, "--objects", out, "--parts", out],
        "--config": ["superpoints", "--scene", str(scene_dir), "--out", out, "--config", bad],
    }[flag]
    assert assert_bad_input(argv, capsys).startswith(f"error: {bad}: ")
    assert not (tmp_path / "out").exists()


def test_config_float_field_takes_an_integer(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"T": 1, "normals_k": 8}')
    args = cli.build_parser().parse_args(
        ["run", "--scene", "s", "--out", "o", "--config", str(cfg)])
    sp, match, merge = cli.load_config(args)
    assert merge.T == 1.0 and isinstance(merge.T, float)
    assert sp.normals_k == 8


# The file a default `p2o run` writes, byte for byte: every tunable, in the
# field order of SuperpointParams, MatchParams, MergeParams.
DEFAULT_EFFECTIVE_CONFIG = """{
  "voxel_size": 0.02,
  "seed_resolution": 0.25,
  "w_spatial": 0.4,
  "w_color": 0.2,
  "w_normal": 1.0,
  "normals_k": 16,
  "tau": 0.3,
  "depth_tol": 0.05,
  "min_track_frames": 2,
  "min_track_points": 30,
  "K": 0.6,
  "T": 0.05,
  "max_layers": 10,
  "inside_frac": 0.9,
  "outside_frac": 0.1,
  "min_object_points": 50
}
"""


def test_default_run_writes_the_documented_effective_config(scene_dir, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["run", "--scene", str(scene_dir), "--out", str(out)]) == 0
    assert (out / "effective_config.json").read_bytes() == DEFAULT_EFFECTIVE_CONFIG.encode()


def run_p2o(*argv):
    env = {k: v for k, v in os.environ.items() if k != "P2O_LOG"}
    return subprocess.run([sys.executable, "-m", "part2object", *argv],
                          capture_output=True, text=True, env=env)


def test_a_bad_tunable_is_one_stderr_line(scene_dir, tmp_path):
    out = tmp_path / "run"
    proc = run_p2o("run", "--scene", str(scene_dir), "--out", str(out), "--K", "0")
    assert proc.returncode == cli.EXIT_BAD_INPUT
    assert proc.stderr.splitlines() == ["error: K must be in (0, 1]"]
    assert not out.exists()


def test_a_stage_failure_is_one_stderr_line(scene_dir, tmp_path):
    (tmp_path / "no_frames").mkdir()
    proc = run_p2o("run", "--scene", str(scene_dir), "--out", str(tmp_path / "run"),
                   "--frames", str(tmp_path / "no_frames"), "--require-priors")
    assert proc.returncode == cli.EXIT_STAGE_FAILURE
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("stage=priors: no frames found"), lines


@pytest.mark.parametrize("artifact, stage", [("hierarchy.json", "cluster"),
                                             ("objects.txt", "extract")])
def test_an_artifact_run_cannot_write_fails_its_stage_in_one_line(
        artifact, stage, scene_dir, tmp_path):
    out = tmp_path / "run"
    (out / artifact).mkdir(parents=True)
    proc = run_p2o("run", "--scene", str(scene_dir), "--out", str(out))
    assert proc.returncode == cli.EXIT_STAGE_FAILURE
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"stage={stage}: "), lines
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["superpoints", "run"])
def test_an_os_error_outside_a_stage_is_one_line_of_bad_input(command, scene_dir, tmp_path):
    # superpoints --out names a directory; run --out lies below a file.
    (tmp_path / "file").write_text("")
    out = {"superpoints": tmp_path, "run": tmp_path / "file" / "sub"}[command]
    proc = run_p2o(command, "--scene", str(scene_dir), "--out", str(out))
    assert proc.returncode == cli.EXIT_BAD_INPUT
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Traceback" not in proc.stderr


def test_a_corrupt_scene_file_fails_the_load_stage_in_one_line(scene_dir, tmp_path):
    scene = tmp_path / "scene"
    shutil.copytree(scene_dir, scene)
    points = scene / "points.p2o"
    points.write_bytes(points.read_bytes()[:-4])
    proc = run_p2o("run", "--scene", str(scene), "--out", str(tmp_path / "run"))
    assert proc.returncode == cli.EXIT_STAGE_FAILURE
    assert proc.stderr.splitlines() == [
        f"stage=load: {points}: truncated file while reading normals"]


def test_a_corrupt_frame_file_is_one_line_of_bad_input(scene_dir, tmp_path):
    scene = tmp_path / "scene"
    shutil.copytree(scene_dir, scene)
    masks = scene / "frame_0.masks"
    masks.write_bytes(masks.read_bytes() + b"\0")
    proc = run_p2o("priors", "--scene", str(scene), "--out", str(tmp_path / "priors.json"))
    assert proc.returncode == cli.EXIT_BAD_INPUT
    assert proc.stderr.splitlines() == [f"error: {masks}: 1 trailing byte(s)"]


@pytest.mark.parametrize("field, value", [("colors", np.inf), ("normals", np.nan)])
def test_a_non_finite_color_or_normal_in_the_scene_file_is_one_line(
        field, value, scene_dir, tmp_path):
    scene = tmp_path / "scene"
    shutil.copytree(scene_dir, scene)
    cloud = scene_io.load_scene(scene)
    values = getattr(cloud, field).copy()
    values[5, 2] = value
    # Past the checks of the constructor, as a corrupt file reaches the loader.
    setattr(cloud, field, values)
    scene_io.write_scene(scene, cloud)
    line = f"{scene}: {field} contain non-finite values"
    proc = run_p2o("superpoints", "--scene", str(scene), "--out", str(tmp_path / "sp.json"))
    assert (proc.returncode, proc.stderr.splitlines()) == (cli.EXIT_BAD_INPUT, [f"error: {line}"])
    out = tmp_path / "run"
    proc = run_p2o("run", "--scene", str(scene), "--out", str(out))
    assert (proc.returncode, proc.stderr.splitlines()) == (cli.EXIT_STAGE_FAILURE,
                                                           [f"stage=load: {line}"])
    assert not (out / "hierarchy.json").exists()


def test_ground_truth_outside_the_scene_fails_the_eval_stage(scene_dir, scene_points, tmp_path):
    gt = tmp_path / "gt" / "ground_truth.txt"
    scene_io.write_instances(gt, scene_io.InstanceSet(
        [scene_io.Instance(np.array([0, scene_points]), kind="object")]))
    out = tmp_path / "run"
    proc = run_p2o("run", "--scene", str(scene_dir), "--out", str(out), "--gt", str(gt))
    assert proc.returncode == cli.EXIT_STAGE_FAILURE
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("stage=eval: "), lines
    assert f"references point {scene_points}" in lines[0]
    assert not (out / "report.json").exists()


def test_overlapping_ground_truth_fails_the_eval_stage_naming_its_file(scene_dir, tmp_path):
    gt = tmp_path / "gt" / "ground_truth.txt"
    scene_io.write_instances(gt, scene_io.InstanceSet(
        [scene_io.Instance(np.arange(0, 5)), scene_io.Instance(np.arange(4, 9))]))
    out = tmp_path / "run"
    proc = run_p2o("run", "--scene", str(scene_dir), "--out", str(out), "--gt", str(gt))
    assert proc.returncode == cli.EXIT_STAGE_FAILURE
    assert proc.stderr.splitlines() == [
        f"stage=eval: {gt}: ground-truth instances must be pairwise disjoint: "
        f"point id 4 is in more than one"]
    assert not (out / "report.json").exists()


def edit_bytes(path, edit):
    path.write_bytes(edit(path.read_bytes()))


def edit_cam(path, edit):
    cam = json.loads(path.read_text())
    edit(cam)
    path.write_text(json.dumps(cam))


def write_small_frames(root, feature_dims):
    """8x10 frames 0, 1, ... with one mask each, set at pixel (0, 0) only
    (runs 0, 1, 79), of the given feature dims."""
    bitmap = np.zeros((8, 10), dtype=bool)
    bitmap[0, 0] = True
    scene_io.write_frames(root, [scene_io.FrameObservation(
        frame_id=k, intrinsics=[[5.0, 0, 4.5], [0, 5.0, 3.5], [0, 0, 1]],
        extrinsics=np.eye(4), depth=np.ones((8, 10), np.float32),
        masks=[scene_io.MaskEntry(bitmap, np.ones(dim, np.float32))])
        for k, dim in enumerate(feature_dims)])


def one_instance_manifest(root, ids_text):
    """root/p.txt, a manifest of one instance whose mask file holds ids_text."""
    (root / "m.txt").write_text(ids_text)
    (root / "p.txt").write_text("m.txt object 1.0\n")
    return root / "p.txt"


# One malformed input per loader check: case(scene, frames, n_points) edits a
# copy of the scene or a set of two small frames, and returns (argv, exit code,
# the one stderr line). Only `run` checks manifest ids against a scene.
def _points_truncated(scene, frames, n):
    edit_bytes(scene / "points.p2o", lambda b: b[:-4])
    return (["superpoints", "--scene", scene, "--out", scene / "sp.json"], cli.EXIT_BAD_INPUT,
            f"error: {scene / 'points.p2o'}: truncated file while reading normals")


def _feature_rows(scene, frames, n):
    edit_bytes(scene / "features.f32",
               lambda b: b[:4] + np.asarray([n - 1], "<u4").tobytes() + b[8:])
    return (["superpoints", "--scene", scene, "--out", scene / "sp.json"], cli.EXIT_BAD_INPUT,
            f"error: {scene / 'features.f32'}: feature rows ({n - 1}) != point count ({n})")


def priors_argv(scene, frames):
    return ["priors", "--scene", scene, "--frames", frames, "--out", scene / "priors.json"]


def _cam_without_fx(scene, frames, n):
    edit_cam(frames / "frame_0.cam", lambda cam: cam.pop("fx"))
    return (priors_argv(scene, frames), cli.EXIT_BAD_INPUT,
            f"error: {frames / 'frame_0.cam'}: missing or malformed field ('fx')")


def _rle_total(scene, frames, n):
    # The first run count follows the tag, mask count, feature dim and run count.
    edit_bytes(frames / "frame_0.masks",
               lambda b: b[:16] + np.asarray([999], "<u4").tobytes() + b[20:])
    return (priors_argv(scene, frames), cli.EXIT_BAD_INPUT,
            f"error: {frames / 'frame_0.masks'}: RLE decodes to 1079 pixels, expected 80")


def _non_orthonormal(scene, frames, n):
    edit_cam(frames / "frame_0.cam",
             lambda cam: cam.update(extrinsics=[2.0] + cam["extrinsics"][1:]))
    return (priors_argv(scene, frames), cli.EXIT_BAD_INPUT,
            f"error: {frames / 'frame_0'}: extrinsics rotation block not orthonormal")


def _nan_depth(scene, frames, n):
    edit_bytes(frames / "frame_1.depth", lambda b: np.float32(np.nan).tobytes() + b[4:])
    return (priors_argv(scene, frames), cli.EXIT_BAD_INPUT,
            f"error: {frames / 'frame_1'}: depth contains non-finite values")


def _mask_dims(scene, frames, n):
    write_small_frames(frames, (4, 5))
    return (priors_argv(scene, frames), cli.EXIT_BAD_INPUT,
            f"error: {frames / 'frame_1.masks'}: mask feature dim 5 != 4")


def _id_at_n(scene, frames, n):
    gt = scene / "gt.txt"
    scene_io.write_instances(gt, scene_io.InstanceSet([scene_io.Instance(np.array([0, n]))]))
    return (["run", "--scene", scene, "--gt", gt, "--out", scene / "run"],
            cli.EXIT_STAGE_FAILURE,
            f"stage=eval: {gt}:1: gt_masks/0000.txt references point {n} but scene has "
            f"{n} points")


def _id_of_20_digits(scene, frames, n):
    p = one_instance_manifest(scene, "99999999999999999999\n")
    return (["eval", "--pred", p, "--gt", p, "--out", scene / "r.json"], cli.EXIT_BAD_INPUT,
            f"error: {p}:1: m.txt: point index out of range")


def _negative_id(scene, frames, n):
    p = one_instance_manifest(scene, "-1\n")
    return (["eval", "--pred", p, "--gt", p, "--out", scene / "r.json"], cli.EXIT_BAD_INPUT,
            f"error: {p}:1: negative point index")


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def not_utf8(path):
    """path, rewritten as byte 0xff followed by its old bytes, if any."""
    path.write_bytes(b"\xff" + (path.read_bytes() if path.exists() else b"{}"))
    return path


def _config_not_utf8(scene, frames, n):
    cfg = not_utf8(scene / "cfg.json")
    return (["superpoints", "--scene", scene, "--out", scene / "sp.json", "--config", cfg],
            cli.EXIT_BAD_INPUT, f"error: {cfg}: {NOT_UTF8}")


def _cam_not_utf8(scene, frames, n):
    cam = not_utf8(frames / "frame_0.cam")
    return priors_argv(scene, frames), cli.EXIT_BAD_INPUT, f"error: {cam}: {NOT_UTF8}"


def _priors_not_utf8(scene, frames, n):
    (scene / "sp.json").write_text(json.dumps(one_layer_hierarchy([list(range(n))], n)))
    priors = not_utf8(scene / "priors.json")
    return (["cluster", "--scene", scene, "--superpoints", scene / "sp.json",
             "--priors", priors, "--out", scene / "h.json"],
            cli.EXIT_BAD_INPUT, f"error: {priors}: {NOT_UTF8}")


def _hierarchy_not_utf8(scene, frames, n):
    h = not_utf8(scene / "h.json")
    return (["extract", "--hierarchy", h, "--objects", scene / "o.txt", "--parts", scene / "p.txt"],
            cli.EXIT_BAD_INPUT, f"error: {h}: {NOT_UTF8}")


def _spec_not_utf8(scene, frames, n):
    spec = not_utf8(scene / "spec.json")
    return (["synth", "--spec", spec, "--out", scene / "synth"], cli.EXIT_BAD_INPUT,
            f"error: {spec}: {NOT_UTF8}")


def _manifest_not_utf8(scene, frames, n):
    p = not_utf8(one_instance_manifest(scene, "0\n"))
    return (["eval", "--pred", p, "--gt", p, "--out", scene / "r.json"], cli.EXIT_BAD_INPUT,
            f"error: {p}: {NOT_UTF8}")


@pytest.mark.parametrize("case", [
    _points_truncated, _feature_rows, _cam_without_fx, _rle_total, _non_orthonormal,
    _nan_depth, _mask_dims, _id_at_n, _id_of_20_digits, _negative_id,
    _config_not_utf8, _cam_not_utf8, _priors_not_utf8, _hierarchy_not_utf8, _spec_not_utf8,
    _manifest_not_utf8,
], ids=lambda case: case.__name__.strip("_"))
def test_golden_error_lines(case, scene_dir, scene_points, tmp_path):
    scene, frames = tmp_path / "scene", tmp_path / "frames"
    shutil.copytree(scene_dir, scene)
    write_small_frames(frames, (4, 4))
    argv, code, line = case(scene, frames, scene_points)
    proc = run_p2o(*map(str, argv))
    assert (proc.returncode, proc.stderr.splitlines()) == (code, [line])


COMMAND_ARGV = {
    "synth": ["--spec", "s.json", "--out", "o"],
    "superpoints": ["--scene", "s", "--out", "o"],
    "priors": ["--scene", "s", "--out", "o"],
    "cluster": ["--scene", "s", "--superpoints", "sp.json", "--out", "o"],
    "extract": ["--hierarchy", "h.json", "--objects", "o.txt", "--parts", "p.txt"],
    "eval": ["--pred", "p.txt", "--gt", "g.txt", "--out", "r.json"],
    "run": ["--scene", "s", "--out", "o"],
    "info": [],
}


# Flags no command takes, then flags a stage does not take because it never
# reads the tunable (or, for --l2-normalize-features, --include-stalled,
# --drop-largest-planar, --mutual, run --jobs and extract --scene, because
# they are gone).
UNKNOWN_FLAGS = [
    pytest.param(command, flag, id=f"flag{k}-{command}")
    for k, flag in enumerate([["--K-fraction", "0.5"], ["--bogus"]])
    for command in COMMAND_ARGV
] + [
    pytest.param(command, flag, id=command + flag[0])
    for command, flag in [
        ("priors", ["--normals-k", "8"]), ("cluster", ["--normals-k", "8"]),
        ("cluster", ["--min-object-points", "30"]), ("extract", ["--normals-k", "8"]),
        ("cluster", ["--l2-normalize-features"]), ("run", ["--l2-normalize-features"]),
        ("extract", ["--include-stalled"]), ("run", ["--include-stalled"]),
        ("extract", ["--drop-largest-planar", "1"]), ("run", ["--drop-largest-planar", "1"]),
        ("extract", ["--scene", "s"]),
        ("priors", ["--mutual"]), ("run", ["--mutual"]), ("run", ["--jobs", "2"]),
    ]
]


@pytest.mark.parametrize("command, flag", UNKNOWN_FLAGS)
def test_unknown_flag_exits_2(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *COMMAND_ARGV[command], *flag])
    assert exc.value.code == cli.EXIT_BAD_INPUT
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err


def test_run_takes_no_seed_and_no_flag_prefix(capsys):
    # --seed was once a dead tunable; it must not pass for --seed-resolution.
    for flag in (["--seed", "3"], ["--seed-res", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", *COMMAND_ARGV["run"], *flag])
        assert exc.value.code == cli.EXIT_BAD_INPUT
        assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["superpoints", "priors", "cluster", "extract", "run"])
@pytest.mark.parametrize("key", ["K_fraction", "seed", "voxel-size", "include_stalled",
                                 "drop_largest_planar", "mutual"])
def test_unknown_config_key_exits_2(command, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    err = assert_bad_input([command, *COMMAND_ARGV[command], "--config", str(cfg)], capsys)
    assert f"unknown config keys ['{key}']" in err
