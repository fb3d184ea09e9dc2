"""Command-line pipeline: synth, superpoints, priors, cluster, extract, eval, run, info.

Every tunable is a field of one stage parameter class (SuperpointParams,
MatchParams, MergeParams). Flag types, config-file keys and
effective_config.json come from those fields, and the classes' own checks
are the only validation; a stage command takes flags only for the tunables
its stage reads, `run` takes them all. Configuration precedence is defaults
< JSON config file < explicit flags. Logs go to stderr (P2O_LOG controls
verbosity); artifacts and reports go to files only. Exit codes: 0 ok, 2 bad
input or an OS error (`run` finds a missing scene, features.f32, --frames
directory or --gt file, and a --frames or --gt given with several scenes,
before it writes anything), 3 stage failure (in `run`, a failed artifact
write included), each failure reported as one stderr line.

Each stage is one function that computes its result, writes its artifact
(the super-point stage writes none) and returns it; its command loads the
inputs from files, `run` passes them on through `stage`. Super-points are
stored only as layer 0 of a p2o.hierarchy/1 file: `superpoints` writes a
one-layer hierarchy, `cluster --superpoints` reads layers[0] of any. A prior
is one track's sorted point ids, from the priors stage to the merge rounds;
`cluster --priors` checks them against the scene it loads. Within a
scene, `run` builds the priors beside the super-points as two blocks of
parallel.thread_map, joined before the merge rounds. The super-point and
cluster stages split their large steps with thread_map too, and every call
shares its one budget of CPUs: while the priors hold a CPU, the super-point
stage runs its blocks in its own thread, and its later steps use the CPU
again once the priors return. Importing the package pins numpy's OpenBLAS to
one thread unless OPENBLAS_NUM_THREADS is set. Scenes run one after another.
scene_io.write_json writes hierarchy.json and priors.json compact, the rest
indented 2.
"""

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluation, hierarchy, objectness, scene_io, superpoints, synth
from .errors import FormatError, OverlappingGroundTruth
from .parallel import thread_map
from .scene_io import write_json

log = logging.getLogger("p2o")

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_STAGE_FAILURE = 3


class StageFailure(RuntimeError):
    def __init__(self, stage, message):
        super().__init__(f"stage={stage}: {message}")


# Every tunable is a field of one stage parameter class: name -> (class, type).
_PARAM_CLASSES = (superpoints.SuperpointParams, objectness.MatchParams, hierarchy.MergeParams)
_CONFIG_FIELDS = {f.name: (cls, f.type)
                  for cls in _PARAM_CLASSES for f in dataclasses.fields(cls)}


def load_config(args):
    """(SuperpointParams, MatchParams, MergeParams) from defaults, config file,
    then flags; a value out of range raises ValueError naming its key."""
    values = {}
    path = getattr(args, "config", None)
    if path:
        values = scene_io.check_fields(
            scene_io.load_json(path), {k: kind for k, (_, kind) in _CONFIG_FIELDS.items()},
            path, "config")
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            values[name] = value
    return tuple(cls(**{k: v for k, v in values.items() if _CONFIG_FIELDS[k][0] is cls})
                 for cls in _PARAM_CLASSES)


def _add_config_flags(parser, names):
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                            type=_CONFIG_FIELDS[name][1])
    parser.add_argument("--config", default=None, help="JSON config file")


def load_priors(path, n_points, scene):
    """Each prior's point ids from a priors.json; FormatError naming path
    unless each entry's point_ids is a non-empty, strictly ascending array of
    ids of the scene's n_points points."""
    data = scene_io.load_json(path)
    if not isinstance(data, list):
        raise FormatError(f"{path}: priors must be a JSON array")
    priors = []
    for k, entry in enumerate(data):
        ids = scene_io.check_fields(entry, {"point_ids": list, "frame_span": int},
                                    path, "prior").get("point_ids")
        # type(v) is int: a JSON boolean is a bool, a fraction a float.
        if not ids or not all(type(v) is int for v in ids):
            raise FormatError(f"{path}: prior {k} needs point_ids, a non-empty array of integers")
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise FormatError(f"{path}: prior {k}: point_ids are not strictly ascending")
        if ids[0] < 0 or ids[-1] >= n_points:
            raise FormatError(f"{path}: prior {k}: point id {ids[0] if ids[0] < 0 else ids[-1]} "
                              f"is outside [0, {n_points}), the points of scene {scene}")
        priors.append(np.asarray(ids, dtype=np.int64))
    return priors


def stage(name, fn, *inputs):
    """fn(*inputs); any failure becomes one StageFailure naming the stage."""
    try:
        return fn(*inputs)
    except Exception as exc:
        raise StageFailure(name, str(exc)) from exc


# ---------------------------------------------------------------------------
# stages: each writes its artifact (but superpoints), logs a count line and returns


def superpoints_stage(cloud, params):
    layer0 = superpoints.build_superpoints(cloud, params)
    log.info("%d super-points over %d points", len(layer0), cloud.n_points)
    return layer0


def priors_stage(cloud, frames_dir, params, out):
    frames = scene_io.load_frames(frames_dir)
    if not frames:
        log.warning("no frames in %s; clustering without priors", frames_dir)
    tracks = objectness.build_tracks(cloud, frames, params)
    write_json(out, [{"point_ids": t.point_ids.tolist(), "frame_span": t.frame_span}
                     for t in tracks], compact=True)
    log.info("%d priors from %d frames", len(tracks), len(frames))
    return [t.point_ids for t in tracks]


def cluster_stage(layer0, cloud, priors, params, out):
    h = hierarchy.run_hierarchy(layer0, cloud, priors, params)
    write_json(out, hierarchy.hierarchy_to_dict(h), compact=True)
    log.info("%d layers, terminal layer has %d clusters", len(h.layers), len(h.layers[-1]))
    return h


def extract_stage(h, params, objects_path, parts_path):
    objects = hierarchy.collect_objects(h, params)
    parts = hierarchy.collect_parts(h, objects)
    scene_io.write_instances(objects_path, objects)
    scene_io.write_instances(parts_path, parts)
    log.info("%d objects, %d parts", len(objects), len(parts))
    return objects


def _instances(path, kind, n_points=None):
    found = scene_io.load_instances(path, n_points)
    return scene_io.InstanceSet([i for i in found.instances if i.kind == kind])


def _scored(gt_paths, score, *args):
    """score(*args), where overlapping ground truth in scene k names gt_paths[k]."""
    try:
        return score(*args)
    except OverlappingGroundTruth as exc:
        raise FormatError(f"{gt_paths[exc.scene]}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands: each loads its inputs (config first) and calls its stage


def cmd_synth(args):
    spec = synth.SynthSpec.from_dict(scene_io.load_json(args.spec), args.spec)
    if args.seed is not None:
        spec.seed = args.seed
    try:
        cloud, gt, frames = synth.generate(spec)
    except ValueError as exc:
        raise ValueError(f"{args.spec}: {exc}") from exc
    out = Path(args.out)
    scene_io.write_scene(out, cloud)
    scene_io.write_frames(out, frames)
    scene_io.write_instances(out / "ground_truth.txt", gt)
    log.info("wrote %d points, %d frames, %d gt instances to %s",
             cloud.n_points, len(frames), len(gt), out)
    return EXIT_OK


def cmd_superpoints(args):
    sp_params, _, _ = load_config(args)
    h = hierarchy.Hierarchy([superpoints_stage(scene_io.load_scene(args.scene), sp_params)], [])
    write_json(args.out, hierarchy.hierarchy_to_dict(h), compact=True)
    return EXIT_OK


def cmd_priors(args):
    _, match_params, _ = load_config(args)
    priors_stage(scene_io.load_scene(args.scene), args.frames or args.scene, match_params, args.out)
    return EXIT_OK


def cmd_cluster(args):
    _, _, merge_params = load_config(args)
    cloud = scene_io.load_scene(args.scene)
    scene_io.scene_file(args.scene, "features.f32")
    h = hierarchy.hierarchy_from_dict(scene_io.load_json(args.superpoints), args.superpoints)
    if h.n_points != cloud.n_points:
        raise FormatError(f"{args.superpoints}: n_points is {h.n_points}, but scene "
                          f"{args.scene} has {cloud.n_points} points")
    priors = load_priors(args.priors, cloud.n_points, args.scene) if args.priors else []
    cluster_stage(h.layers[0], cloud, priors, merge_params, args.out)
    return EXIT_OK


def cmd_extract(args):
    _, _, merge_params = load_config(args)
    for path in (args.objects, args.parts):
        scene_io.check_manifest_path(path)
    h = hierarchy.hierarchy_from_dict(scene_io.load_json(args.hierarchy), args.hierarchy)
    extract_stage(h, merge_params, args.objects, args.parts)
    return EXIT_OK


def cmd_eval(args):
    if len(args.pred) != len(args.gt):
        raise FormatError("--pred and --gt must be given the same number of times")
    pairs = [(_instances(pred, args.kind), _instances(gt, args.kind))
             for pred, gt in zip(args.pred, args.gt)]
    report = _scored(args.gt, evaluation.evaluate_multi, pairs)
    write_json(args.out, report.to_dict())
    log.info("ap25=%.4f ap50=%.4f mean_ap=%.4f", report.ap25, report.ap50, report.mean_ap)
    return EXIT_OK


def _run_one_scene(scene_dir, out_dir, params, args):
    """Every stage on one scene: (objects, object ground truth), or None without it."""
    sp_params, match_params, merge_params = params
    cloud = stage("load", scene_io.load_scene, scene_dir)
    # Neither block mutates the cloud. thread_map returns in block order, so
    # when both blocks fail the super-point failure is the one raised, as in
    # a serial run; with one CPU the blocks run serially in this order.
    layer0, priors = thread_map(lambda block: stage(*block), [
        ("superpoints", superpoints_stage, cloud, sp_params),
        ("priors", priors_stage, cloud, args.frames or scene_dir, match_params,
         out_dir / "priors.json"),
    ])
    h = stage("cluster", cluster_stage, layer0, cloud, priors, merge_params,
              out_dir / "hierarchy.json")
    objects = stage("extract", extract_stage, h, merge_params,
                    out_dir / "objects.txt", out_dir / "parts.txt")

    gt_path = Path(args.gt) if args.gt else scene_dir / "ground_truth.txt"
    if not gt_path.exists():
        return None
    gt = stage("eval", _instances, gt_path, "object", cloud.n_points)
    report = stage("eval", _scored, [gt_path], evaluation.evaluate, objects, gt)
    stage("eval", write_json, out_dir / "report.json", report.to_dict())
    log.info("ap50=%.4f", report.ap50)
    return objects, gt


def cmd_run(args):
    # Every tunable and input path is checked here, before anything is written.
    params = load_config(args)
    scenes = [Path(s) for s in args.scene]
    for scene in scenes:
        scene_io.scene_file(scene, "points.p2o")
        scene_io.scene_file(scene, "features.f32")
    if args.gt and len(scenes) > 1:
        raise FormatError("--gt takes one --scene; each of several reads its ground_truth.txt")
    if args.frames and len(scenes) > 1:
        raise FormatError("--frames takes one --scene; each of several reads its own frames")
    if args.gt and not Path(args.gt).is_file():
        raise FileNotFoundError(f"no ground truth: {args.gt} not found")
    # frame_ids rejects a missing --frames dir; a doomed run builds no super-points.
    for frames_dir in [Path(args.frames)] if args.frames else scenes:
        if not scene_io.frame_ids(frames_dir) and args.require_priors:
            raise StageFailure("priors", f"no frames found in {frames_dir}")
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    write_json(out_root / "effective_config.json",
               {k: v for p in params for k, v in dataclasses.asdict(p).items()})

    if len(scenes) == 1:
        _run_one_scene(scenes[0], out_root, params, args)
        return EXIT_OK

    # One scene after another, each in a unique output subdir even when
    # directory names collide.
    pairs, used = [], set()
    for scene in scenes:
        base = scene.name or "scene"
        name, k = base, 1
        while name in used:
            name = f"{base}_{k}"
            k += 1
        used.add(name)
        pair = _run_one_scene(scene, out_root / name, params, args)
        if pair is not None:
            pairs.append(pair)
    if pairs:
        pooled = stage("eval", evaluation.evaluate_multi, pairs)
        stage("eval", write_json, out_root / "report.json", pooled.to_dict())
        log.info("pooled ap50=%.4f over %d scenes", pooled.ap50, len(pairs))
    return EXIT_OK


def cmd_info(args):
    formats = {"points.p2o": scene_io.POINTS_MAGIC.decode(),
               "features.f32": scene_io.FEATURES_MAGIC.decode(),
               "frame masks": scene_io.MASKS_MAGIC.decode(),
               "hierarchy json": hierarchy.HIERARCHY_SCHEMA,
               "report json": evaluation.REPORT_SCHEMA}
    if args.json:
        print(json.dumps({"formats": formats}, indent=2))
    else:
        print("on-disk format versions:", *(f"  {k:<20} {v}" for k, v in formats.items()),
              sep="\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="p2o",
        description="Unsupervised 3D instance segmentation by prior-guided "
                    "hierarchical clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # Flags must be spelled out: --seed must not pass for --seed-resolution.
        return sub.add_parser(name, help=help, allow_abbrev=False)

    p = command("synth", help="generate a synthetic scene")
    p.add_argument("--spec", required=True, help="scene spec JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(fn=cmd_synth)

    p = command("superpoints", help="build layer-0 super-points")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, ["voxel_size", "seed_resolution", "w_spatial", "w_color",
                          "w_normal", "normals_k"])
    p.set_defaults(fn=cmd_superpoints)

    p = command("priors", help="extract 3D objectness priors from frames")
    p.add_argument("--scene", required=True)
    p.add_argument("--frames", default=None, help="frames dir (default: scene dir)")
    p.add_argument("--out", required=True)
    _add_config_flags(p, ["tau", "depth_tol", "min_track_frames", "min_track_points"])
    p.set_defaults(fn=cmd_priors)

    p = command("cluster", help="run hierarchical clustering")
    p.add_argument("--scene", required=True)
    p.add_argument("--superpoints", required=True)
    p.add_argument("--priors", default=None)
    p.add_argument("--out", required=True)
    _add_config_flags(p, ["K", "T", "max_layers", "inside_frac", "outside_frac"])
    p.set_defaults(fn=cmd_cluster)

    p = command("extract", help="collect objects and parts from a hierarchy")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--objects", required=True, help="output objects manifest")
    p.add_argument("--parts", required=True, help="output parts manifest")
    _add_config_flags(p, ["min_object_points"])
    p.set_defaults(fn=cmd_extract)

    p = command("eval", help="score predictions against ground truth")
    p.add_argument("--pred", action="append", required=True)
    p.add_argument("--gt", action="append", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=scene_io.KINDS, default="object")
    p.set_defaults(fn=cmd_eval)

    p = command("run", help="full pipeline on one or more scenes")
    p.add_argument("--scene", action="append", required=True)
    p.add_argument("--frames", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--gt", default=None, help="ground truth manifest "
                   "(default: <scene>/ground_truth.txt if present)")
    p.add_argument("--require-priors", action="store_true")
    _add_config_flags(p, list(_CONFIG_FIELDS))
    p.set_defaults(fn=cmd_run)

    p = command("info", help="print on-disk format versions")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_info)

    return parser


def main(argv=None):
    level = os.environ.get("P2O_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        level = "WARNING"
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_STAGE_FAILURE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
