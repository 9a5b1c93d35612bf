"""Association-focused tracking metrics: IDF1, MOTA, id switches, fragmentation.

Tracks are frame-indexed box maps (track id -> {frame -> BoundingBox}).
Per-frame correspondence is the optimal gated box matching
(``core.solve_assignment`` on ``1 - IoU``).  IDF1 additionally solves one
global identity bijection maximizing total per-frame overlap: a cost-limited
solve (``core.solve_cost_limited``) on ``-overlap`` over the positive overlaps,
so identities joined by no overlap fall into separate solver components.  MOTA
can be negative; the clamped value is reported alongside the raw one.
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


def _frame_matching(gt: Tracks, pred: Tracks, gate: float):
    """Per-frame optimal gated matching: frame -> {gt id -> pred id}."""
    frames = sorted(
        {f for track in gt.values() for f in track}
        | {f for track in pred.values() for f in track}
    )
    gt_ids = sorted(gt)
    pred_ids = sorted(pred)
    per_frame: dict[int, dict[int, int]] = {}
    counts = {"fp": 0, "fn": 0}
    for f in frames:
        g_here = [i for i in gt_ids if f in gt[i]]
        p_here = [i for i in pred_ids if f in pred[i]]
        matches: dict[int, int] = {}
        if g_here and p_here:
            cost = np.array(
                [[1.0 - iou(gt[gi][f], pred[pi][f]) for pi in p_here] for gi in g_here]
            )
            assignment = solve_assignment(cost, 1.0 - gate)
            matches = {g_here[r]: p_here[c] for r, c in assignment.pairs}
        per_frame[f] = matches
        counts["fn"] += len(g_here) - len(matches)
        counts["fp"] += len(p_here) - len(matches)
    return per_frame, counts


def _identity_overlap(gt: Tracks, pred: Tracks, gate: float) -> np.ndarray:
    """overlap[g, p]: frames where both exist and their boxes pass the gate."""
    gt_ids = sorted(gt)
    pred_ids = sorted(pred)
    overlap = np.zeros((len(gt_ids), len(pred_ids)), dtype=np.int64)
    for gi, g in enumerate(gt_ids):
        for pi, p in enumerate(pred_ids):
            overlap[gi, pi] = sum(
                1 for f, box in gt[g].items() if f in pred[p] and iou(box, pred[p][f]) >= gate
            )
    return overlap


def identity_bijection_overlap(gt: Tracks, pred: Tracks, gate: float) -> int:
    """Total per-frame overlap of the optimal one-to-one identity mapping.

    A cost-limited solve on ``-overlap`` with zero-overlap pairs forbidden:
    every pair it takes gains, so it maximizes the total overlap, and the
    solver splits identities joined by no overlap into separate components.
    """
    if not gt or not pred:
        return 0
    overlap = _identity_overlap(gt, pred, gate)
    assignment = solve_cost_limited(np.where(overlap > 0, -overlap, np.inf), 0.0)
    return int(sum(overlap[r, c] for r, c in assignment.pairs))


def evaluate(gt: Tracks, pred: Tracks, iou_gate: float = 0.5) -> EvalReport:
    """Score predicted tracks against ground truth at the given IoU gate."""
    n_gt = sum(len(t) for t in gt.values())
    if n_gt == 0:
        raise ValueError("evaluation requires nonempty ground truth")
    n_pred = sum(len(t) for t in pred.values())

    idtp = identity_bijection_overlap(gt, pred, iou_gate)
    idfn = n_gt - idtp
    idfp = n_pred - idtp
    idf1 = 2.0 * idtp / (2.0 * idtp + idfp + idfn)

    per_frame, counts = _frame_matching(gt, pred, iou_gate)

    id_switches = 0
    fragmentations = 0
    for g in sorted(gt):
        last_pred = None
        matched_before = False
        prev_matched = False
        for f in sorted(gt[g]):
            pred_id = per_frame.get(f, {}).get(g)
            if pred_id is not None:
                if last_pred is not None and pred_id != last_pred:
                    id_switches += 1
                if matched_before and not prev_matched:
                    fragmentations += 1
                last_pred = pred_id
                matched_before = True
                prev_matched = True
            else:
                prev_matched = False

    mota_raw = 1.0 - (counts["fn"] + counts["fp"] + id_switches) / n_gt
    return EvalReport(
        idf1=idf1,
        mota=max(0.0, mota_raw),
        mota_raw=mota_raw,
        id_switches=id_switches,
        fragmentations=fragmentations,
        idtp=idtp,
        idfp=idfp,
        idfn=idfn,
        fp=counts["fp"],
        fn=counts["fn"],
        n_gt_boxes=n_gt,
        n_pred_boxes=n_pred,
    )


def tracks_from_global(tracks) -> Tracks:
    """Convert GlobalTrack objects (or any .id/.entries carriers) to box maps."""
    return {t.id: {d.frame: d.box for d in t.entries} for t in tracks}
