"""Command-line front end and file formats.

Formats (all frames are 1-based in files, 0-based in memory):

* detections / tracks: MOT-style CSV rows
  ``frame,id,bb_left,bb_top,bb_width,bb_height,conf,x,y,z`` -- id is -1 for raw
  detections and the trailing three fields are ignored on input.
* embeddings sidecar: ``frame,det_index,v1,...,vD`` with det_index the 0-based
  position of the detection within its frame in the detection file.  Every
  entry must be finite and no row may have zero norm (it has no direction to
  match on), whichever matcher runs.
* configs: ``key = value`` text files (``#`` comments); interruptions are
  ``kind:start:end:ids`` entries separated by ``;`` with ids ``*`` or ``|``
  -separated integers.
* sweep grids: ``CS,CI`` pairs separated by ``;`` (e.g. ``5,5;10,5``).

Box fields and confidences must be finite.  Each reader checks the values it
reads, and a bad one fails naming its ``file:line``.

Exit codes: 0 success, 1 usage error, 2 data/config error.  Every command
writes a run manifest next to its outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import BoundingBox, Detection, GlobalTrack
from .metrics import Tracks, evaluate
from .pipeline import SWEEP_COLUMNS, PipelineConfig, run, sweep
from .scenario import (
    Interruption,
    ScenarioConfig,
    generate,
    scenario_to_json,
    with_seed,
)
from .summarizer import SummarizerConfig, load_weights, save_weights
from .training import POOL_PER_FRAME, AugmentConfig, TrainConfig, scenario_sample_source, train


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


# --- MOT-style files ----------------------------------------------------------


def _parse_line(path, lineno: int, line: str) -> tuple[int, int, BoundingBox, float]:
    parts = line.split(",")
    if len(parts) < 7:
        raise ValueError(
            f"{path}:{lineno}: expected at least 7 comma-separated fields, got {len(parts)}"
        )
    try:
        frame = int(parts[0])
        track_id = int(float(parts[1]))
        x, y, w, h, conf = (float(v) for v in parts[2:7])
    except ValueError as err:
        raise ValueError(f"{path}:{lineno}: {err}") from None
    if not math.isfinite(x + y + w + h + conf):  # a NaN or an inf makes the sum non-finite
        values = {"bb_left": x, "bb_top": y, "bb_width": w, "bb_height": h, "conf": conf}
        for name, value in values.items():
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: {name} must be finite, got {value}")
    if frame < 1:
        raise ValueError(f"{path}:{lineno}: frame numbers are 1-based, got {frame}")
    if w <= 0 or h <= 0:
        raise ValueError(f"{path}:{lineno}: non-positive box extent {w}x{h}")
    if not 0.0 <= conf <= 1.0:
        raise ValueError(f"{path}:{lineno}: confidence {conf} outside [0, 1]")
    return frame - 1, track_id, BoundingBox(x, y, w, h), conf


def _lines(path):
    """(1-based line number, stripped line) for each nonblank line of a file."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line:
                yield lineno, line


def parse_detections(path) -> list[list[tuple[BoundingBox, float]]]:
    """Per-frame (box, score) lists; input ids are ignored."""
    frames: dict[int, list[tuple[BoundingBox, float]]] = {}
    for lineno, line in _lines(path):
        frame, _ignored, box, conf = _parse_line(path, lineno, line)
        frames.setdefault(frame, []).append((box, conf))
    n = max(frames) + 1 if frames else 0
    return [frames.get(f, []) for f in range(n)]


def parse_embeddings(path, expected_dim: int) -> dict[tuple[int, int], np.ndarray]:
    """Sidecar embeddings keyed by (0-based frame, detection index).

    Entries must be finite and no row may have zero norm.  Both are checked
    over all rows at once, after the rest of the file, and the first bad row
    is named by its line."""
    out: dict[tuple[int, int], np.ndarray] = {}
    linenos = []
    for lineno, line in _lines(path):
        parts = line.split(",")
        if len(parts) < 3:
            raise ValueError(f"{path}:{lineno}: expected frame,det_index,v1,...")
        try:
            frame = int(parts[0])
            det_index = int(parts[1])
            values = np.array([float(v) for v in parts[2:]], dtype=np.float64)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
        if values.size != expected_dim:
            raise ValueError(
                f"{path}:{lineno}: embedding dimension {values.size}, expected {expected_dim}"
            )
        key = (frame - 1, det_index)
        if key in out:
            raise ValueError(
                f"{path}:{lineno}: duplicate embedding for frame {frame}, det {det_index}"
            )
        out[key] = values
        linenos.append(lineno)
    rows = np.array(list(out.values())).reshape(len(out), expected_dim)
    finite = np.isfinite(rows).all(axis=1)
    with np.errstate(over="ignore"):  # a huge finite entry squares to inf, still nonzero
        bad = np.flatnonzero(~finite | (np.linalg.norm(rows, axis=1) == 0.0))
    if bad.size:
        what = "entries must be finite" if not finite[bad[0]] else "has zero norm"
        raise ValueError(f"{path}:{linenos[bad[0]]}: embedding {what}")
    return out


def assemble_stream(
    frame_rows: list[list[tuple[BoundingBox, float]]],
    embeddings: dict[tuple[int, int], np.ndarray],
) -> list[list[Detection]]:
    """Zip detection rows with their sidecar embeddings into Detection frames."""
    stream: list[list[Detection]] = []
    used = set()
    for f, rows in enumerate(frame_rows):
        frame_dets = []
        for idx, (box, score) in enumerate(rows):
            key = (f, idx)
            if key not in embeddings:
                raise ValueError(f"missing embedding for frame {f + 1}, det {idx}")
            used.add(key)
            frame_dets.append(Detection(f, box, score, embeddings[key], idx))
        stream.append(frame_dets)
    extra = set(embeddings) - used
    if extra:
        f, idx = sorted(extra)[0]
        raise ValueError(f"embedding for frame {f + 1}, det {idx} has no matching detection")
    return stream


def write_tracks(tracks: list[GlobalTrack], path) -> None:
    """MOT-style track rows, sorted by (frame, id); byte-deterministic."""
    rows = []
    for t in tracks:
        for d in t.entries:
            rows.append((d.frame + 1, t.id, d.box, d.score))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w") as fh:
        for frame, track_id, box, conf in rows:
            fh.write(
                f"{frame},{track_id},{_fmt(box.x)},{_fmt(box.y)},{_fmt(box.w)},{_fmt(box.h)},"
                f"{_fmt(conf)},-1,-1,-1\n"
            )


def write_detections(detections: list[list[Detection]], path) -> None:
    with open(path, "w") as fh:
        for frame_dets in detections:
            for d in frame_dets:
                fh.write(
                    f"{d.frame + 1},-1,{_fmt(d.box.x)},{_fmt(d.box.y)},{_fmt(d.box.w)},"
                    f"{_fmt(d.box.h)},{_fmt(d.score)},-1,-1,-1\n"
                )


def write_embeddings(detections: list[list[Detection]], path) -> None:
    with open(path, "w") as fh:
        for frame_dets in detections:
            for d in frame_dets:
                values = ",".join(_fmt(v) for v in d.embedding)
                fh.write(f"{d.frame + 1},{d.source_index},{values}\n")


def parse_track_file(path) -> Tracks:
    """Track file with meaningful ids (ground truth or predictions)."""
    tracks: Tracks = {}
    for lineno, line in _lines(path):
        frame, track_id, box, _conf = _parse_line(path, lineno, line)
        per_track = tracks.setdefault(track_id, {})
        if frame in per_track:
            raise ValueError(f"{path}:{lineno}: track {track_id} already has frame {frame + 1}")
        per_track[frame] = box
    return tracks


def gt_to_global_tracks(gt_tracks: Tracks) -> list[GlobalTrack]:
    out = []
    for identity in sorted(gt_tracks):
        entries = [
            Detection(f, box, 1.0, np.zeros(2), 0) for f, box in sorted(gt_tracks[identity].items())
        ]
        out.append(GlobalTrack(id=identity + 1, entries=entries))
    return out


# --- key=value config files ----------------------------------------------------


def read_kv(path) -> dict[str, tuple[int, str]]:
    """``key = value`` lines as key -> (line number, value); ``#`` starts a comment."""
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in _lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = (lineno, value)
    return out


def _parse_interruptions(text: str) -> tuple[Interruption, ...]:
    entries = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 4:
            raise ValueError(f"interruption {chunk!r} must be kind:start:end:ids")
        kind, start, end, ids = parts
        identities = None if ids.strip() == "*" else tuple(int(v) for v in ids.split("|"))
        entries.append(Interruption(kind.strip(), int(start), int(end), identities))
    return tuple(entries)


def _parse_value(path, entry: tuple[int, str], key: str, parse):
    """``parse`` of an entry's value; a bad value names the key and its ``file:line``."""
    lineno, value = entry
    try:
        return parse(value)
    except ValueError as err:
        raise ValueError(f"{path}:{lineno}: {key}: {err}") from None


def _build_from_kv(cls, path, kv: dict[str, tuple[int, str]], special=None):
    known = {f.name: f for f in fields(cls)}
    special = special or {}
    kwargs = {}
    for key, entry in kv.items():
        if key in special:
            parse = special[key]
        elif key not in known:
            raise ValueError(f"{path}:{entry[0]}: unknown {cls.__name__} key {key!r}")
        else:
            parse = {"int": int, "float": float}.get(str(known[key].type), str)
        kwargs[key] = _parse_value(path, entry, key, parse)
    return cls(**kwargs)


def scenario_config_from_file(path) -> ScenarioConfig:
    kv = read_kv(path)
    return _build_from_kv(ScenarioConfig, path, kv, special={"interruptions": _parse_interruptions})


def pipeline_config_from_file(path) -> PipelineConfig:
    kv = read_kv(path)
    return _build_from_kv(
        PipelineConfig,
        path,
        kv,
        special={
            "weights_path": lambda v: None if v.lower() in ("", "none") else v,
            "patience": lambda v: None if v.lower() in ("", "none") else int(v),
        },
    )


# Summarizer dimensions a training file may set; the scenario sets input_dim.
MODEL_DIMS = [f for f in fields(SummarizerConfig) if f.name != "input_dim"]
# AugmentConfig's fields in order, its tuples flattened.
AUG_KEYS = ("positive_iou", "negative_low", "negative_high", "p_positive", "p_negative", "p_hybrid",
            "mixup_bound")


def train_setup_from_file(path):
    """Returns (TrainConfig, AugmentConfig, model fields dict).

    The model fields are the summarizer dimensions of ``MODEL_DIMS``,
    ``n_videos`` and ``pool_per_frame``.  A key missing from the file keeps
    its class's default.
    """
    kv = read_kv(path)
    model = {f.name: f.default for f in MODEL_DIMS} | {"n_videos": 6, "pool_per_frame": POOL_PER_FRAME}
    d = AugmentConfig()
    aug_raw = dict(zip(AUG_KEYS, (d.positive_iou, *d.negative_band, *d.track_type_probs,
                                  d.mixup_bound)))
    train_kv = {}
    for key, entry in kv.items():
        if key in model:
            model[key] = _parse_value(path, entry, key, int)
        elif key in aug_raw:
            aug_raw[key] = _parse_value(path, entry, key, float)
        else:
            train_kv[key] = entry
    train_cfg = _build_from_kv(TrainConfig, path, train_kv)
    positive_iou, low, high, p_pos, p_neg, p_hybrid, mixup_bound = aug_raw.values()
    aug = AugmentConfig(positive_iou, (low, high), (p_pos, p_neg, p_hybrid), mixup_bound)
    return train_cfg, aug, model


def parse_grid(text: str) -> list[tuple[int, int]]:
    grid = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"grid cell {chunk!r} must be 'clip_size,clip_interval'")
        grid.append((int(parts[0]), int(parts[1])))
    if not grid:
        raise ValueError("empty sweep grid")
    return grid


# --- run manifests --------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    tool_version: str
    subcommand: str
    arguments: dict
    config_snapshot: dict
    input_paths: list[str]
    output_paths: list[str]
    seed: int | None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _manifest(subcommand, args, config_snapshot, inputs, outputs, seed) -> RunManifest:
    return RunManifest(
        tool_version=__version__,
        subcommand=subcommand,
        arguments={k: str(v) for k, v in vars(args).items() if v is not None},
        config_snapshot=config_snapshot,
        input_paths=[str(p) for p in inputs],
        output_paths=[str(p) for p in outputs],
        seed=seed,
    )


# --- subcommands -----------------------------------------------------------------


def _load_stream(cfg: PipelineConfig, dets, embs, embedding_dim: int = 0):
    """Summarizer weights (clip_tracker only) and the detection stream.

    The embedding dimension is the weights' input dimension, else
    ``embedding_dim``, else sniffed from the first embedding row.
    """
    weights = None
    if cfg.inter == "clip_tracker":
        if not cfg.weights_path:
            raise ValueError("clip_tracker matching requires weights_path in the config")
        weights = load_weights(cfg.weights_path)
        embedding_dim = weights.config.input_dim
    rows = parse_detections(dets)
    embeddings = parse_embeddings(embs, embedding_dim or _sniff_dim(embs))
    return weights, assemble_stream(rows, embeddings)


def _cmd_track(args) -> int:
    cfg = pipeline_config_from_file(args.config)
    weights, stream = _load_stream(cfg, args.dets, args.embs, args.embedding_dim)
    tracks = run(stream, cfg, weights)
    write_tracks(tracks, args.out)
    snapshot = asdict(cfg)
    _manifest("track", args, snapshot, [args.dets, args.embs, args.config], [args.out], args.seed).write(
        str(args.out) + ".manifest.json"
    )
    return 0


def _sniff_dim(path) -> int:
    for _lineno, line in _lines(path):
        return max(len(line.split(",")) - 2, 1)
    raise ValueError(f"{path}: empty embeddings file")


def _cmd_train(args) -> int:
    base = scenario_config_from_file(args.scenario_config)
    train_cfg, aug, model = train_setup_from_file(args.train_config)
    if args.seed is not None:
        base = with_seed(base, args.seed)
        train_cfg = replace(train_cfg, seed=args.seed)
    scenario_cfgs = [with_seed(base, base.seed + i) for i in range(model["n_videos"])]
    dims = {f.name: model[f.name] for f in MODEL_DIMS}
    model_cfg = SummarizerConfig(input_dim=base.embedding_dim, **dims)
    source = scenario_sample_source(
        scenario_cfgs, aug, train_cfg, pool_per_frame=model["pool_per_frame"]
    )
    weights, history = train(source, model_cfg, train_cfg)
    save_weights(weights, args.out_weights)
    loss_path = str(args.out_weights) + ".loss.csv"
    with open(loss_path, "w") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(history):
            fh.write(f"{epoch},{_fmt(loss)}\n")
    snapshot = {"train": asdict(train_cfg), "augment": asdict(aug),
                "model": model | {"ffn_dim": model_cfg.ffn_dim}, "scenario": asdict(base)}
    _manifest(
        "train", args, snapshot, [args.scenario_config, args.train_config],
        [args.out_weights, loss_path], args.seed,
    ).write(str(args.out_weights) + ".manifest.json")
    return 0


def _cmd_eval(args) -> int:
    gt = parse_track_file(args.gt)
    pred = parse_track_file(args.pred)
    report = evaluate(gt, pred, iou_gate=args.iou_gate)
    with open(args.report, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    sys.stdout.write(report.to_text())
    _manifest("eval", args, {"iou_gate": args.iou_gate}, [args.gt, args.pred], [args.report],
              args.seed).write(str(args.report) + ".manifest.json")
    return 0


def _cmd_sweep(args) -> int:
    cfg = pipeline_config_from_file(args.config)
    weights, stream = _load_stream(cfg, args.dets, args.embs)
    gt = parse_track_file(args.gt)
    grid = parse_grid(args.grid)
    table = sweep(stream, gt, grid, cfg, weights)
    with open(args.out_table, "w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in table:
            fh.write(",".join(str(row.get(col, "")) for col in SWEEP_COLUMNS) + "\n")
    _manifest(
        "sweep", args, asdict(cfg), [args.dets, args.embs, args.gt, args.config],
        [args.out_table], args.seed,
    ).write(str(args.out_table) + ".manifest.json")
    return 0


def _cmd_simulate(args) -> int:
    cfg = scenario_config_from_file(args.config)
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    gt, detections = generate(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario_path = out_dir / "scenario.json"
    scenario_path.write_text(scenario_to_json(gt, detections) + "\n")
    write_detections(detections, out_dir / "dets.txt")
    write_embeddings(detections, out_dir / "embs.txt")
    write_tracks(gt_to_global_tracks(gt.as_tracks()), out_dir / "gt.txt")
    outputs = [scenario_path, out_dir / "dets.txt", out_dir / "embs.txt", out_dir / "gt.txt"]
    snapshot = asdict(cfg)
    snapshot["interruptions"] = [asdict(i) for i in cfg.interruptions]
    _manifest("simulate", args, snapshot, [args.config], outputs, args.seed).write(
        out_dir / "manifest.json"
    )
    return 0


# --- argument parsing --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="cliptrack", description="Clip-based multi-object tracking toolkit")
    sub = parser.add_subparsers(dest="subcommand")

    track = sub.add_parser("track", help="associate a detection stream into tracks")
    track.add_argument("--dets", required=True)
    track.add_argument("--embs", required=True)
    track.add_argument("--config", required=True)
    track.add_argument("--out", required=True)
    track.add_argument("--embedding-dim", type=int, default=0, dest="embedding_dim")
    track.add_argument("--seed", type=int, default=None)

    tr = sub.add_parser("train", help="train the track-history summarizer on synthetic scenarios")
    tr.add_argument("--scenario-config", required=True, dest="scenario_config")
    tr.add_argument("--out-weights", required=True, dest="out_weights")
    tr.add_argument("--train-config", required=True, dest="train_config")
    tr.add_argument("--seed", type=int, default=None)

    ev = sub.add_parser("eval", help="score predicted tracks against ground truth")
    ev.add_argument("--gt", required=True)
    ev.add_argument("--pred", required=True)
    ev.add_argument("--report", required=True)
    ev.add_argument("--iou-gate", type=float, default=0.5, dest="iou_gate")
    ev.add_argument("--seed", type=int, default=None)

    sw = sub.add_parser("sweep", help="grid of clip size/interval cells, CSV-reported")
    sw.add_argument("--dets", required=True)
    sw.add_argument("--embs", required=True)
    sw.add_argument("--gt", required=True)
    sw.add_argument("--grid", required=True)
    sw.add_argument("--out-table", required=True, dest="out_table")
    sw.add_argument("--config", required=True)
    sw.add_argument("--seed", type=int, default=None)

    sim = sub.add_parser("simulate", help="generate a synthetic scenario and export it")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out-dir", required=True, dest="out_dir")
    sim.add_argument("--seed", type=int, default=None)
    return parser


_COMMANDS = {
    "track": _cmd_track,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.subcommand](args)
    except UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        parser.print_usage(sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
