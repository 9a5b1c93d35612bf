"""Output checks made apart from the program: numpy and the standard library only.

Files are the MOT-style rows the CLI reads and writes
(``frame,id,x,y,w,h,conf,...``, floats written with ``repr``), so an output
entry is matched to its input detection by exact equality of frame, box and
score.  The gates mirror the scorer's documented arithmetic: a box pair counts
towards identity overlap at ``IoU >= gate`` and may be matched within a frame
at ``1 - IoU <= 1 - gate``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


class CheckFailed(Exception):
    pass


def read_rows(path) -> list[tuple[int, int, tuple[float, float, float, float], float]]:
    """(frame, id, (x, y, w, h), conf) per non-empty line, in file order."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) < 7:
                raise CheckFailed(f"{path}:{lineno}: expected at least 7 fields")
            box = (float(parts[2]), float(parts[3]), float(parts[4]), float(parts[5]))
            rows.append((int(parts[0]), int(float(parts[1])), box, float(parts[6])))
    return rows


def by_track(rows) -> dict[int, dict[int, tuple[float, float, float, float]]]:
    tracks: dict[int, dict[int, tuple]] = {}
    for frame, track_id, box, _conf in rows:
        tracks.setdefault(track_id, {})[frame] = box
    return tracks


def check_tracks(detection_rows, track_rows) -> None:
    """Every output entry is an input detection, no input detection is in two
    entries, track ids are positive, and each track's frames strictly increase
    in file order (so no track holds a frame twice)."""
    available = Counter((frame, box, conf) for frame, _id, box, conf in detection_rows)
    used: Counter = Counter()
    last_frame: dict[int, int] = {}
    for frame, track_id, box, conf in track_rows:
        if track_id < 1:
            raise CheckFailed(f"track id {track_id} is not a positive integer")
        key = (frame, box, conf)
        if available[key] == 0:
            raise CheckFailed(f"track {track_id}, frame {frame}: entry {box} is not an input detection")
        used[key] += 1
        if used[key] > available[key]:
            raise CheckFailed(
                f"input detection at frame {frame} {box} is in more than one output track entry"
            )
        if track_id in last_frame and frame <= last_frame[track_id]:
            raise CheckFailed(
                f"track {track_id}: frames do not strictly increase ({last_frame[track_id]} then {frame})"
            )
        last_frame[track_id] = frame


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (n, 4) and (m, 4) x, y, w, h boxes, with the scorer's
    operation order (areas from the rounded edges), so results agree bit for bit."""
    ax, ay = a[:, 0:1], a[:, 1:2]
    ax2, ay2 = ax + a[:, 2:3], ay + a[:, 3:4]
    bx, by = b[None, :, 0], b[None, :, 1]
    bx2, by2 = bx + b[None, :, 2], by + b[None, :, 3]
    iw = np.minimum(ax2, bx2) - np.maximum(ax, bx)
    ih = np.minimum(ay2, by2) - np.maximum(ay, by)
    inter = iw * ih
    union = (ax2 - ax) * (ay2 - ay) + (bx2 - bx) * (by2 - by) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = inter / union
    return np.where((iw > 0.0) & (ih > 0.0), out, 0.0)


def max_weight_total(weight: np.ndarray) -> int:
    """Largest total weight of a one-to-one matching of rows to columns
    (non-negative integer weights; a zero pair adds nothing)."""
    n, m = weight.shape
    size = max(n, m)
    if n == 0 or m == 0:
        return 0
    cost = np.zeros((size + 1, size + 1))
    cost[1 : n + 1, 1 : m + 1] = -weight
    # Shortest augmenting paths with potentials (Hungarian algorithm), 1-based;
    # column 0 is the virtual start.  Costs are integers, so the sums are exact.
    u = np.zeros(size + 1)
    v = np.zeros(size + 1)
    p = np.zeros(size + 1, dtype=np.int64)
    way = np.zeros(size + 1, dtype=np.int64)
    for i in range(1, size + 1):
        p[0] = i
        j0 = 0
        minv = np.full(size + 1, math.inf)
        used = np.zeros(size + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            reduced = cost[i0] - u[i0] - v
            better = ~used & (reduced < minv)
            minv[better] = reduced[better]
            way[better] = j0
            free_minv = np.where(used, math.inf, minv)
            j1 = int(np.argmin(free_minv))
            delta = free_minv[j1]
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return int(sum(weight[p[j] - 1, j - 1] for j in range(1, m + 1) if 1 <= p[j] <= n))


def max_cardinality(allowed: np.ndarray) -> int:
    """Size of a maximum matching over the allowed pairs (augmenting paths)."""
    n, m = allowed.shape
    adjacency = [np.flatnonzero(allowed[i]).tolist() for i in range(n)]
    owner = [-1] * m

    def augment(i: int, seen: list[bool]) -> bool:
        for j in adjacency[i]:
            if not seen[j]:
                seen[j] = True
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, [False] * m) for i in range(n))


def score_counts(gt_rows, pred_rows, gate: float = 0.5) -> dict[str, int]:
    """IDTP of the best identity bijection, the per-frame maximum gated
    matching summed over frames, and the box counts."""
    gt = by_track(gt_rows)
    pred = by_track(pred_rows)
    gt_ids, pred_ids = sorted(gt), sorted(pred)
    overlap = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    frames = sorted({f for t in gt.values() for f in t} | {f for t in pred.values() for f in t})
    matched = 0
    for f in frames:
        gi = [i for i, g in enumerate(gt_ids) if f in gt[g]]
        pi = [i for i, p in enumerate(pred_ids) if f in pred[p]]
        if not gi or not pi:
            continue
        q = iou_matrix(
            np.array([gt[gt_ids[i]][f] for i in gi]), np.array([pred[pred_ids[i]][f] for i in pi])
        )
        overlap[np.ix_(gi, pi)] += q >= gate
        matched += max_cardinality((1.0 - q) <= (1.0 - gate))
    return {
        "idtp": max_weight_total(overlap),
        "matched": matched,
        "n_gt": sum(len(t) for t in gt.values()),
        "n_pred": sum(len(t) for t in pred.values()),
    }


def check_report(report: dict, counts: dict[str, int]) -> None:
    """The scorer's report against counts computed by ``score_counts``."""
    n_gt, n_pred, idtp = counts["n_gt"], counts["n_pred"], counts["idtp"]
    if (report["n_gt_boxes"], report["n_pred_boxes"]) != (n_gt, n_pred):
        raise CheckFailed(
            f"box counts {report['n_gt_boxes']}/{report['n_pred_boxes']}, expected {n_gt}/{n_pred}"
        )
    if report["idtp"] != idtp:
        raise CheckFailed(f"IDTP {report['idtp']}, expected {idtp} from the best identity bijection")
    if (report["idfp"], report["idfn"]) != (n_pred - idtp, n_gt - idtp):
        raise CheckFailed("IDFP/IDFN do not follow from IDTP and the box counts")
    if not math.isclose(report["idf1"], 2.0 * idtp / (n_gt + n_pred), rel_tol=1e-12):
        raise CheckFailed(f"IDF1 {report['idf1']} does not follow from IDTP {idtp}")
    expected = n_gt + n_pred - 2 * counts["matched"]
    if report["fp"] + report["fn"] != expected:
        raise CheckFailed(
            f"fp + fn = {report['fp'] + report['fn']}, expected {expected} from the "
            f"per-frame maximum gated matching"
        )


def check_self_score(report: dict) -> None:
    """Ground truth scored against itself is perfect."""
    if report["idf1"] != 1.0 or report["mota"] != 1.0 or report["id_switches"] != 0:
        raise CheckFailed(
            f"ground truth against itself: IDF1 {report['idf1']}, MOTA {report['mota']}, "
            f"{report['id_switches']} id switches"
        )


def check_gradient(loss_of, flat: np.ndarray, analytic: np.ndarray, coords, step: float = 1e-5) -> None:
    """Central differences of ``loss_of`` agree with the analytic gradient on
    the given coordinates (relative error at most 1e-4, floor 1e-3)."""
    for k in coords:
        p = flat.copy()
        p[k] += step
        hi = loss_of(p)
        p[k] -= 2 * step
        lo = loss_of(p)
        numeric = (hi - lo) / (2 * step)
        denom = max(abs(analytic[k]), abs(numeric), 1e-3)
        if not abs(analytic[k] - numeric) / denom <= 1e-4:
            raise CheckFailed(
                f"gradient coordinate {k}: analytic {analytic[k]:.6e}, central difference {numeric:.6e}"
            )
