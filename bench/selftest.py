"""Self-test of the benchmark's output checks, at tiny sizes.

    python3 bench/selftest.py        (or: cd bench && python3 selftest.py)

Tracks and scores one small scene through the CLI, then shows that the checks
pass on the true outputs and catch each corrupted copy: a detection copied
into a second track, an IDTP off by one, and more.  The checks' own matching
solvers are compared with exhaustive search.  Exits 0 when every case holds.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from run import OUT, load_program  # noqa: E402


def brute_max_weight(weight) -> int:
    n, m = weight.shape
    if n > m:
        return brute_max_weight(weight.T)
    return max(sum(weight[i, cols[i]] for i in range(n)) for cols in itertools.permutations(range(m), n))


def brute_max_cardinality(allowed) -> int:
    return brute_max_weight(allowed.astype(int))


def main() -> int:
    if not load_program():
        return 2
    import numpy as np
    from checks import (
        CheckFailed, check_gradient, check_report, check_self_score, check_tracks,
        max_cardinality, max_weight_total, read_rows, score_counts,
    )
    from cliptrack import cli
    from cliptrack.scenario import ScenarioConfig, generate
    from cliptrack.summarizer import SummarizerConfig, batch_loss, gradient, init_weights, weights_from_flat
    from cliptrack.training import TrainSample

    failures = []

    def case(name, fn, expect_failure):
        try:
            fn()
            caught = None
        except CheckFailed as err:
            caught = err
        if expect_failure and caught is None:
            failures.append(name)
            print(f"FAIL {name}: the corruption was not caught")
        elif not expect_failure and caught is not None:
            failures.append(name)
            print(f"FAIL {name}: {caught}")
        else:
            print(f"ok   {name}" + (f" (caught: {caught})" if caught else ""))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=OUT) as tmp:
        d = Path(tmp)
        gt, dets = generate(ScenarioConfig(frames=12, identities=3, embedding_dim=8,
                                           embedding_noise=0.05, fp_rate=0.3, seed=7))
        cli.write_detections(dets, d / "dets.txt")
        cli.write_embeddings(dets, d / "embs.txt")
        cli.write_tracks(cli.gt_to_global_tracks(gt.as_tracks()), d / "gt.txt")
        (d / "track.cfg").write_text("clip_size = 4\nclip_interval = 2\n")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["track", "--dets", str(d / "dets.txt"), "--embs", str(d / "embs.txt"),
                          "--config", str(d / "track.cfg"), "--out", str(d / "tracks.txt")]),
                cli.main(["eval", "--gt", str(d / "gt.txt"), "--pred", str(d / "tracks.txt"),
                          "--report", str(d / "report.json")]),
                cli.main(["eval", "--gt", str(d / "gt.txt"), "--pred", str(d / "gt.txt"),
                          "--report", str(d / "self.json")]),
            ]
        if codes != [0, 0, 0]:
            print(f"FAIL the CLI exited with codes {codes}")
            return 1
        det_rows = read_rows(d / "dets.txt")
        gt_rows = read_rows(d / "gt.txt")
        rows = read_rows(d / "tracks.txt")
        report = json.loads((d / "report.json").read_text())
        self_report = json.loads((d / "self.json").read_text())

    case("true tracks pass", lambda: check_tracks(det_rows, rows), False)
    case("true report passes", lambda: check_report(report, score_counts(gt_rows, rows)), False)
    case("ground truth against itself passes", lambda: check_self_score(self_report), False)

    # A detection of one track copied into a second track, at a frame it lacks.
    frames_of: dict[int, set] = {}
    for frame, track_id, _box, _conf in rows:
        frames_of.setdefault(track_id, set()).add(frame)
    src, dst = next((a, b) for a in frames_of for b in frames_of
                    if a != b and frames_of[a] - frames_of[b])
    copied = next(r for r in rows if r[1] == src and r[0] not in frames_of[dst])
    corrupt = sorted(rows + [(copied[0], dst, copied[2], copied[3])], key=lambda r: (r[0], r[1]))
    case("detection copied into a second track", lambda: check_tracks(det_rows, corrupt), True)

    frame, track_id, (x, y, w, h), conf = rows[0]
    moved = [(frame, track_id, (x + 0.25, y, w, h), conf)] + rows[1:]
    case("entry that is no input detection", lambda: check_tracks(det_rows, moved), True)

    # Another track's detection moved into a track that already holds its frame.
    a, b = next((a, b) for a in rows for b in rows if a[0] == b[0] and a[1] != b[1])
    twice = [(r[0], a[1], r[2], r[3]) if r is b else r for r in rows]
    case("track holding one frame twice", lambda: check_tracks(det_rows, twice), True)

    counts = score_counts(gt_rows, rows)
    for key, label in (("idtp", "IDTP off by one"), ("fp", "fp + fn off by one"),
                       ("n_pred_boxes", "predicted box count off by one")):
        bad = dict(report, **{key: report[key] + 1})
        case(label, lambda bad=bad: check_report(bad, counts), True)

    case("ground truth against itself with an id switch",
         lambda: check_self_score(dict(self_report, id_switches=1)), True)

    rng = np.random.default_rng(3)
    weights = init_weights(SummarizerConfig(input_dim=8, model_dim=8, n_layers=1, n_heads=2), 5)
    batch = [TrainSample(rng.normal(size=(2 + i % 3, 8)), ("positive",) * (2 + i % 3), i % 3, 0)
             for i in range(6)]
    grads, _ = gradient(weights, batch)
    flat, analytic = weights.flatten(), grads.flatten()
    coords = list(np.argsort(-np.abs(analytic))[:3])

    def loss_of(p):
        return batch_loss(weights_from_flat(weights.config, p), batch)

    case("analytic gradient matches central differences",
         lambda: check_gradient(loss_of, flat, analytic, coords), False)
    skewed = analytic.copy()
    skewed[coords[0]] *= 1.01
    case("gradient coordinate off by 1%", lambda: check_gradient(loss_of, flat, skewed, coords), True)

    def solvers_agree():
        for _ in range(400):
            n, m = rng.integers(1, 5, size=2)
            weight = rng.integers(0, 4, size=(n, m)) * (rng.random((n, m)) < 0.6)
            if max_weight_total(weight) != brute_max_weight(weight):
                raise CheckFailed(f"max_weight_total disagrees with exhaustive search on {weight.tolist()}")
            allowed = rng.random((n, m)) < 0.4
            if max_cardinality(allowed) != brute_max_cardinality(allowed):
                raise CheckFailed(f"max_cardinality disagrees with exhaustive search on {allowed.tolist()}")

    case("check solvers agree with exhaustive search", solvers_agree, False)

    print(f"{len(failures)} of the self-test cases failed" if failures else "all self-test cases hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
