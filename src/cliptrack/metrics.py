"""Association-focused tracking metrics: IDF1, MOTA, id switches, fragmentation.

Tracks are frame-indexed box maps (track id -> {frame -> BoundingBox}).
Scoring is one pass over the frames, each co-present box pair's IoU computed
once: per frame, the optimal gated matching (``core.solve_assignment`` on
``1 - IoU``) gives fn, fp, switches and fragmentations, and gated pairs add to
an identity overlap count.  IDF1's identity bijection is then one cost-limited
solve (``core.solve_cost_limited``) on ``-overlap`` over the positive overlaps.
MOTA can be negative; the clamped value is reported alongside the raw one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import BoundingBox, iou, solve_assignment, solve_cost_limited

Tracks = dict[int, dict[int, BoundingBox]]


@dataclass(frozen=True)
class EvalReport:
    idf1: float
    mota: float
    mota_raw: float
    id_switches: int
    fragmentations: int
    idtp: int
    idfp: int
    idfn: int
    fp: int
    fn: int
    n_gt_boxes: int
    n_pred_boxes: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def to_text(self) -> str:
        rows = asdict(self)
        width = max(len(k) for k in rows)
        lines = []
        for key, value in rows.items():
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            lines.append(f"{key.ljust(width)}  {shown}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_json(text: str) -> "EvalReport":
        return EvalReport(**json.loads(text))


def _by_frame(tracks: Tracks) -> dict[int, tuple[list[int], list[BoundingBox]]]:
    """frame -> (rows, boxes) of the tracks present, rows in ascending id order."""
    out: dict[int, tuple[list[int], list[BoundingBox]]] = {}
    for row, key in enumerate(sorted(tracks)):
        for f, box in tracks[key].items():
            rows, boxes = out.setdefault(f, ([], []))
            rows.append(row)
            boxes.append(box)
    return out


def _one_pass(gt: Tracks, pred: Tracks, gate: float):
    """Walk the frames in ascending order, scoring each co-present box pair once.

    Returns (overlap, fn, fp, id switches, fragmentations), where
    ``overlap[g, p]`` counts the frames in which gt row ``g`` and pred column
    ``p`` both exist and their boxes pass the gate.
    """
    gt_frames, pred_frames = _by_frame(gt), _by_frame(pred)
    overlap = np.zeros((len(gt), len(pred)), dtype=np.int64)
    fn = fp = id_switches = fragmentations = 0
    last_pred: list[int | None] = [None] * len(gt)  # column of each gt row's last match
    lost = [False] * len(gt)  # unmatched since its last match
    for f in sorted(gt_frames.keys() | pred_frames.keys()):
        g_rows, g_boxes = gt_frames.get(f, ([], []))
        p_cols, p_boxes = pred_frames.get(f, ([], []))
        matches: dict[int, int] = {}
        if g_rows and p_cols:
            ious = np.array([[iou(g, p) for p in p_boxes] for g in g_boxes])
            hit_r, hit_c = np.nonzero(ious >= gate)
            overlap[np.array(g_rows)[hit_r], np.array(p_cols)[hit_c]] += 1
            assignment = solve_assignment(1.0 - ious, 1.0 - gate)
            matches = {g_rows[r]: p_cols[c] for r, c in assignment.pairs}
        fn += len(g_rows) - len(matches)
        fp += len(p_cols) - len(matches)
        for g in g_rows:
            p = matches.get(g)
            if p is None:
                lost[g] = last_pred[g] is not None
                continue
            id_switches += last_pred[g] is not None and p != last_pred[g]
            fragmentations += lost[g]
            last_pred[g], lost[g] = p, False
    return overlap, fn, fp, id_switches, fragmentations


def _bijection_overlap(overlap: np.ndarray) -> int:
    """Total overlap of the optimal one-to-one identity mapping.

    A cost-limited solve on ``-overlap`` with zero-overlap pairs forbidden:
    every pair it takes gains, so it maximizes the total overlap, and the
    solver splits identities joined by no overlap into separate components.
    """
    if overlap.size == 0:
        return 0
    assignment = solve_cost_limited(np.where(overlap > 0, -overlap, np.inf), 0.0)
    return int(sum(overlap[r, c] for r, c in assignment.pairs))


def identity_bijection_overlap(gt: Tracks, pred: Tracks, gate: float) -> int:
    """Total per-frame overlap of the optimal one-to-one identity mapping."""
    return _bijection_overlap(_one_pass(gt, pred, gate)[0])


def evaluate(gt: Tracks, pred: Tracks, iou_gate: float = 0.5) -> EvalReport:
    """Score predicted tracks against ground truth at the given IoU gate."""
    n_gt = sum(len(t) for t in gt.values())
    if n_gt == 0:
        raise ValueError("evaluation requires nonempty ground truth")
    n_pred = sum(len(t) for t in pred.values())
    overlap, fn, fp, id_switches, fragmentations = _one_pass(gt, pred, iou_gate)
    idtp = _bijection_overlap(overlap)
    idfn = n_gt - idtp
    idfp = n_pred - idtp
    mota_raw = 1.0 - (fn + fp + id_switches) / n_gt
    return EvalReport(
        idf1=2.0 * idtp / (2.0 * idtp + idfp + idfn),
        mota=max(0.0, mota_raw),
        mota_raw=mota_raw,
        id_switches=id_switches,
        fragmentations=fragmentations,
        idtp=idtp,
        idfp=idfp,
        idfn=idfn,
        fp=fp,
        fn=fn,
        n_gt_boxes=n_gt,
        n_pred_boxes=n_pred,
    )


def tracks_from_global(tracks) -> Tracks:
    """Convert GlobalTrack objects (or any .id/.entries carriers) to box maps."""
    return {t.id: {d.frame: d.box for d in t.entries} for t in tracks}
