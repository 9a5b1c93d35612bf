"""The benchmark's runner: set-up, rounds of checked operations, metrics.

Imported by run.py once the checkout's ``src`` is on the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from checks import (
    CheckFailed,
    check_gradient,
    check_report,
    check_self_score,
    check_tracks,
    read_rows,
    score_counts,
)
from cliptrack import cli, core, inter_clip, intra_clip, metrics, pipeline, scenario, summarizer, training
from cliptrack.training import AugmentConfig
from spans import Tracer, aggregate
from workloads import CELLS, INIT_SEED, MODEL, cell_name, make_workload

SETUPS = 3


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Scene:
    dets: Path
    embs: Path
    gt: Path
    frames: int
    dim: int
    det_rows: list | None = None
    gt_rows: list | None = None


@dataclass
class Inputs:
    dir: Path
    scenes: list[Scene]
    source: object
    weights: Path
    configs: dict[str, Path]
    digest: str


class Runner:
    def __init__(self, workload, tracer, work: Path):
        self.wl = workload
        self.tracer = tracer
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.first_digest: dict[str, str] = {}
        self.verdict: dict[str, str | None] = {}  # first check's failure, None if it passed

    # --- operations ---------------------------------------------------------

    def operation(self, key: str, fn) -> None:
        self.attempted += 1
        self.tracer.op += 1
        try:
            fn()
        except Exception:  # one failed operation is counted, the run goes on
            self.failed += 1
            print(f"operation failed: {key}", file=sys.stderr)
            traceback.print_exc()

    @contextlib.contextmanager
    def untraced(self):
        enabled, self.tracer.enabled = self.tracer.enabled, False
        try:
            yield
        finally:
            self.tracer.enabled = enabled

    def checked(self, key: str, digest: str, check) -> None:
        """Check an operation's output the first time it is seen.  Every
        repetition must reproduce that output's digest, and so gets the same
        verdict without checking again."""
        if key not in self.first_digest:
            self.first_digest[key] = digest
            try:
                with self.untraced():
                    check()
            except CheckFailed as err:
                self.verdict[key] = str(err)
                raise
            self.verdict[key] = None
        elif digest != self.first_digest[key]:
            raise CheckFailed(f"{key}: output digest {digest[:16]} differs from the first "
                              f"round's {self.first_digest[key][:16]}")
        elif self.verdict[key] is not None:
            raise CheckFailed(self.verdict[key])

    def run_cli(self, name: str, argv: list[str]) -> float:
        """Run one CLI command in process; returns its wall time."""
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.tracer.call(name, cli.main, [str(a) for a in argv])
            elapsed = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"cliptrack {argv[0]} exited with code {code}")
        return elapsed

    # --- set-up -------------------------------------------------------------

    def setup(self, tag: str) -> Inputs:
        d = self.work / tag
        d.mkdir()
        scenes = []
        for i, cfg in enumerate(self.wl.scenes):
            gt, dets = self.tracer.call("scenario.generate", scenario.generate, cfg)
            scene = Scene(d / f"scene{i}.dets.txt", d / f"scene{i}.embs.txt", d / f"scene{i}.gt.txt",
                          cfg.frames, cfg.embedding_dim)
            cli.write_detections(dets, scene.dets)
            cli.write_embeddings(dets, scene.embs)
            cli.write_tracks(cli.gt_to_global_tracks(gt.as_tracks()), scene.gt)
            scenes.append(scene)
        source = training.scenario_sample_source(
            list(self.wl.family), AugmentConfig.full(), self.wl.train
        )
        weights = d / "weights.bin"
        if not self.wl.tracker_uses_trained_weights:
            model = replace(MODEL, input_dim=self.wl.scenes[0].embedding_dim)
            summarizer.save_weights(summarizer.init_weights(model, INIT_SEED), weights)
        configs = {}
        for intra, inter in CELLS:
            path = d / f"{cell_name(intra, inter)}.cfg"
            cfg = self.wl.cell_config(intra, inter, str(weights))
            path.write_text("".join(f"{k} = {'none' if v is None else v}\n" for k, v in asdict(cfg).items()))
            configs[cell_name(intra, inter)] = path
        data = sorted(p for p in d.iterdir() if p.suffix in (".txt", ".bin"))
        digest = sha(b"".join(p.name.encode() + sha(p.read_bytes()).encode() for p in data))
        return Inputs(d, scenes, source, weights, configs, digest)

    # --- one round ----------------------------------------------------------

    def round(self, inp: Inputs) -> dict:
        times: dict[tuple, float] = {}  # operation -> seconds of its timed call
        idf1: dict[str, list[float]] = {}

        def train_op():
            start = time.perf_counter()
            weights, history = self.tracer.call(
                "training.train", training.train, self.traced_source(inp.source),
                MODEL, self.wl.train, init_seed=INIT_SEED,
            )
            times[("train",)] = time.perf_counter() - start
            self.checked("train", sha(weights.flatten().tobytes() + repr(history).encode()),
                         lambda: self.check_training(inp, weights, history))
            if self.wl.tracker_uses_trained_weights:
                summarizer.save_weights(weights, inp.weights)

        self.operation("train", train_op)

        for intra, inter in CELLS:
            cell = cell_name(intra, inter)
            idf1[cell] = []
            for i, scene in enumerate(inp.scenes):
                out = inp.dir / f"{cell}.scene{i}.tracks.txt"
                report = inp.dir / f"{cell}.scene{i}.report.json"

                def track_op(scene=scene, out=out, cell=cell, i=i):
                    times[("track", cell, i)] = self.run_cli("bench.track", [
                        "track", "--dets", scene.dets, "--embs", scene.embs,
                        "--config", inp.configs[cell], "--out", out, "--embedding-dim", scene.dim,
                    ])
                    self.checked(f"track {cell} scene {i}", sha(out.read_bytes()),
                                 lambda: check_tracks(scene.det_rows, read_rows(out)))

                def eval_op(scene=scene, out=out, report=report, cell=cell, i=i):
                    times[("eval", cell, i)] = self.run_cli("bench.eval", [
                        "eval", "--gt", scene.gt, "--pred", out, "--report", report,
                    ])
                    text = report.read_bytes()
                    result = json.loads(text)
                    self.checked(f"eval {cell} scene {i}", sha(out.read_bytes() + text),
                                 lambda: check_report(result, score_counts(scene.gt_rows, read_rows(out))))
                    idf1[cell].append(result["idf1"])

                self.operation(f"track {cell} scene {i}", track_op)
                self.operation(f"eval {cell} scene {i}", eval_op)

        for i, scene in enumerate(inp.scenes):
            def self_score_op(scene=scene, i=i):
                report = inp.dir / "self.report.json"
                with self.untraced():
                    self.run_cli("bench.eval_gt", ["eval", "--gt", scene.gt, "--pred", scene.gt,
                                                   "--report", report])
                text = report.read_bytes()
                self.checked(f"eval ground truth scene {i}", sha(text),
                             lambda: check_self_score(json.loads(text)))

            self.operation(f"eval ground truth scene {i}", self_score_op)
        return {"times": times, "idf1": idf1}

    def traced_source(self, source):
        """The batch sampler as ``train`` sees it, timed as training.batch."""
        return lambda seed: self.tracer.call("training.batch", source, seed)

    def check_training(self, inp: Inputs, weights, history) -> None:
        """Loss finite; analytic gradient at the trained weights against
        central differences on six coordinates (three largest, three seeded)."""
        if not all(math.isfinite(x) for x in history):
            raise CheckFailed(f"training loss is not finite: {history}")
        batch = inp.source(self.wl.train.seed ^ 0xC4EC4)
        grads, loss = summarizer.gradient(weights, batch)
        if not math.isfinite(loss):
            raise CheckFailed("batch loss is not finite")
        flat, analytic = weights.flatten(), grads.flatten()
        rng = np.random.default_rng(self.wl.train.seed)
        coords = list(np.argsort(-np.abs(analytic))[:3]) + list(rng.integers(0, flat.size, 3))
        check_gradient(
            lambda p: summarizer.batch_loss(summarizer.weights_from_flat(weights.config, p), batch),
            flat, analytic, coords,
        )

    # --- the run --------------------------------------------------------------

    def run(self, seconds: int, traced: bool) -> dict:
        setup_s, setup_spans, digests = [], [], []
        self.tracer.enabled = traced
        for k in range(SETUPS):
            lo = len(self.tracer.spans)
            start = time.perf_counter()
            inp = self.setup(f"setup{k}")
            setup_s.append(time.perf_counter() - start)
            setup_spans.append((lo, len(self.tracer.spans)))
            digests.append(inp.digest)
        for scene in inp.scenes:
            scene.det_rows = read_rows(scene.dets)
            scene.gt_rows = read_rows(scene.gt)

        rounds = []
        start = time.perf_counter()
        min_rounds = 3 if traced else 2
        while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
            # In a traced run the first round is the untraced reference.
            self.tracer.enabled = traced and len(rounds) > 0
            lo = len(self.tracer.spans)
            r = self.round(inp)
            r["spans"] = (lo, len(self.tracer.spans))
            r["traced"] = self.tracer.enabled
            rounds.append(r)
        self.tracer.enabled = False
        return {"setup_s": setup_s, "setup_spans": setup_spans, "rounds": rounds,
                "setup_deterministic": len(set(digests)) == 1}


# --- metrics -----------------------------------------------------------------

PARSE_SPANS = ("cli.parse_detections", "cli.parse_embeddings", "cli.assemble_stream",
               "cli.parse_track_file", "cli.load_weights", "cli.pipeline_config_from_file")
WRITE_SPANS = ("cli.write_tracks", "cli.RunManifest.write")


def install_tracing(tracer) -> None:
    """Wrap the program's functions at the names its modules call them by."""
    def tracklets(result, *args, **kwargs):
        return {"tracklets": len(result)}

    def forward(result, weights, track, *args, **kwargs):
        m = np.ascontiguousarray(track, dtype=np.float64)
        return {"rows": len(m), "input": hashlib.sha1(m.tobytes()).hexdigest()}

    tracer.wrap(cli, "run", "cli.run")
    tracer.wrap(cli, "evaluate", "cli.evaluate")
    for name in PARSE_SPANS + WRITE_SPANS[:1]:
        tracer.wrap(cli, name.split(".", 1)[1], name)
    tracer.wrap(cli.RunManifest, "write", "cli.RunManifest.write")
    tracer.wrap(pipeline, "associate_directional", "pipeline.associate_directional", tracklets)
    tracer.wrap(pipeline, "associate_direction_free", "pipeline.associate_direction_free", tracklets)
    tracer.wrap(pipeline, "match", "pipeline.match",
                lambda r, store, *a, **k: {"pairs": len(r.pairs), "store_tracks": len(store.tracks)})
    tracer.wrap(pipeline, "merge", "pipeline.merge")
    tracer.wrap(intra_clip, "solve_assignment", "intra_clip.solve_assignment")
    tracer.wrap(inter_clip, "solve_cost_limited", "inter_clip.solve_cost_limited",
                lambda r, cost, *a, **k: {"cells": int(np.size(cost))})
    tracer.wrap(inter_clip, "forward_summarize", "inter_clip.forward_summarize", forward)
    tracer.wrap(core, "solve_assignment", "core.solve_assignment")
    tracer.wrap(metrics, "identity_bijection_overlap", "metrics.identity_bijection_overlap",
                lambda r, gt, pred, *a, **k: {"cells": len(gt) * len(pred)})
    tracer.wrap(metrics, "solve_assignment", "metrics.solve_assignment")
    tracer.wrap(training, "gradient", "training.gradient",
                lambda r, weights, samples, *a, **k: {"tracks": len(samples)})
    tracer.wrap(training, "init_weights", "training.init_weights")
    tracer.wrap(training, "generate", "training.generate")
    tracer.wrap(training, "build_proposal_pool", "training.build_proposal_pool")


def layer_metrics(agg: dict) -> dict[str, float]:
    t, s, c, n = agg["total"], agg["self"], agg["calls"], agg["counts"]
    forwards = c["inter_clip.forward_summarize"]
    distinct = len(agg["inputs"]["inter_clip.forward_summarize"])
    return {
        "core.solve_s.intra_clip": t["intra_clip.solve_assignment"],
        "intra_clip.directional_s": t["pipeline.associate_directional"],
        "intra_clip.direction_free_s": t["pipeline.associate_direction_free"],
        "intra_clip.tracklets": n["pipeline.associate_directional.tracklets"]
        + n["pipeline.associate_direction_free.tracklets"],
        "core.solve_s.inter_clip": t["inter_clip.solve_cost_limited"],
        "core.solve_cost_limited_self_s": s["inter_clip.solve_cost_limited"],
        "core.components": c["core.solve_assignment"],
        "inter_clip.match_self_s": s["pipeline.match"],
        "inter_clip.cost_cells": n["inter_clip.solve_cost_limited.cells"],
        "inter_clip.pairs": n["pipeline.match.pairs"],
        "inter_clip.merge_s": t["pipeline.merge"],
        "inter_clip.store_tracks": n["pipeline.match.store_tracks"],
        "core.solve_s.metrics": t["metrics.solve_assignment"],
        "metrics.bijection_s": t["metrics.identity_bijection_overlap"],
        "metrics.bijection_cells": n["metrics.identity_bijection_overlap.cells"],
        "metrics.evaluate_self_s": s["cli.evaluate"],
        "summarizer.forward_s": t["inter_clip.forward_summarize"],
        "summarizer.forward_calls": forwards,
        "summarizer.forward_rows": n["inter_clip.forward_summarize.rows"],
        "summarizer.forward_distinct_ratio": distinct / forwards if forwards else 0.0,
        "summarizer.gradient_s": t["training.gradient"],
        "summarizer.gradient_tracks": n["training.gradient.tracks"],
        "training.batch_s": t["training.batch"],
        "training.update_s": s["training.train"],
        "cli.parse_s": sum(t[name] for name in PARSE_SPANS),
        "cli.write_s": sum(t[name] for name in WRITE_SPANS),
        "pipeline.run_self_s": s["cli.run"],
        "pipeline.clips": c["pipeline.associate_directional"] + c["pipeline.associate_direction_free"],
    }


def setup_layer_metrics(agg: dict) -> dict[str, float]:
    t = agg["total"]
    return {
        "scenario.generate_s": t["scenario.generate"] + t["training.generate"],
        "scenario.proposal_pool_s": t["training.build_proposal_pool"],
    }


def median_of(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def end_to_end(workload, result: dict) -> dict[str, float]:
    rounds = result["rounds"]
    scenes = range(len(workload.scenes))

    def seconds(*keys):
        """Summed over operations: each one's median over the rounds."""
        return sum(statistics.median(r["times"].get(key, math.inf) for r in rounds) for key in keys)

    metrics = {"setup_s": statistics.median(result["setup_s"])}
    for intra, inter in CELLS:
        cell = cell_name(intra, inter)
        metrics[f"track_fps.{cell}"] = rate(
            workload.frames, seconds(*(("track", cell, i) for i in scenes)))
    metrics["eval_fps"] = rate(workload.frames * len(CELLS), seconds(
        *(("eval", cell_name(*c), i) for c in CELLS for i in scenes)))
    metrics["train_steps_per_s"] = rate(workload.steps, seconds(("train",)))
    for intra, inter in CELLS:
        scores = rounds[0]["idf1"][cell_name(intra, inter)]
        metrics[f"idf1.{cell_name(intra, inter)}"] = statistics.fmean(scores) if scores else 0.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


UNITS = {"setup_s": "s", "eval_fps": "frames/s", "train_steps_per_s": "steps/s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("track_fps."):
        return "frames/s"
    if name.startswith("idf1.") or name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") or "_s." in name else "count"


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a trivial call."""
    probe = Tracer()
    probe.enabled = True
    start = time.perf_counter()
    for _ in range(calls):
        probe.call("probe", int)
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        int()
    return (traced - (time.perf_counter() - start)) / calls


def run_benchmark(args, out: Path) -> int:
    """One run as run.py describes it; prints the info lines and the result line."""
    try:
        workload = make_workload(args.workload, args.seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    tracer = Tracer()
    if traced:
        install_tracing(tracer)
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"work-{args.workload}-", dir=out) as work:
        runner = Runner(workload, tracer, Path(work))
        try:
            result = runner.run(args.seconds, traced)
        finally:
            tracer.restore()

    rounds = result["rounds"]
    print(f"# {workload.name} seed {args.seed}: {len(rounds)} rounds, {len(workload.scenes)} scenes, "
          f"{workload.frames} frames, {workload.steps} SGD steps per round")
    print("# set-up seconds: " + " ".join(f"{x:.3f}" for x in result["setup_s"]))
    for intra, inter in CELLS:
        cell = cell_name(intra, inter)
        digest = sha("".join(runner.first_digest.get(f"track {cell} scene {i}", "-")
                             for i in range(len(workload.scenes))).encode())
        print(f"# digest {cell} {digest[:16]}")
    print(f"# digest train {runner.first_digest.get('train', '-')[:16]}")

    def timed(r):
        return sum(r["times"].values())

    if traced:
        plain = [timed(r) for r in rounds if not r["traced"]]
        with_spans = [timed(r) for r in rounds if r["traced"]]
        overhead = statistics.median(with_spans) / statistics.median(plain) - 1.0
        spans_per_round = statistics.median(hi - lo for lo, hi in (r["spans"] for r in rounds if r["traced"]))
        cost = span_cost()
        estimate = spans_per_round * cost / statistics.median(with_spans)
        print(f"# tracing overhead: {100 * overhead:+.1f}% on the timed calls of a round "
              f"({statistics.median(with_spans):.3f} s traced, {statistics.median(plain):.3f} s untraced); "
              f"{spans_per_round:.0f} spans per round at {1e6 * cost:.2f} us each "
              f"account for {100 * estimate:.2f}%")
        per_round = [layer_metrics(aggregate(tracer.spans, *r["spans"])) for r in rounds if r["traced"]]
        per_setup = [setup_layer_metrics(aggregate(tracer.spans, *span)) for span in result["setup_spans"]]
        values = {**median_of(per_round), **median_of(per_setup)}
        trace_path = out / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"# {len(tracer.spans)} spans written to {os.path.relpath(trace_path)}")
    else:
        values = end_to_end(workload, result)
        print("# timed seconds per round: " + " ".join(f"{timed(r):.3f}" for r in rounds))

    print(json.dumps({
        "correct": result["setup_deterministic"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()},
    }))
    return 0


