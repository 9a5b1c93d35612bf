"""In-memory spans around the program's functions, recorded from outside.

``Tracer.wrap`` replaces a function at the name a module calls it by (for
example ``cliptrack.pipeline.match``) with a wrapper that records a span:
name, start, end, parent span, sequence id (its index) and the benchmark
operation it ran under, plus optional counts taken from the call.  Nothing in
the program changes; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # [name, start, end, parent seq or None, op, counts dict or None]
        self.spans: list[list] = []
        self.op = 0
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        seq = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
        self.spans.append(record)
        self._stack.append(seq)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            record[5] = count(result, *args, **kwargs)
        return result

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def restore(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for seq, (name, start, end, parent, op, counts) in enumerate(self.spans):
                fh.write(json.dumps({"seq": seq, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "counts": counts}) + "\n")


def aggregate(spans: list[list], lo: int, hi: int) -> dict:
    """Per span name over ``spans[lo:hi]``: total time, self time (a span minus
    its direct children), calls, summed counts and the set of ``input`` keys."""
    child_time: dict[int, float] = defaultdict(float)
    for seq in range(lo, hi):
        _name, start, end, parent, _op, _counts = spans[seq]
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    inputs: dict[str, set] = defaultdict(set)
    for seq in range(lo, hi):
        name, start, end, _parent, _op, extra = spans[seq]
        total[name] += end - start
        self_time[name] += end - start - child_time[seq]
        calls[name] += 1
        for key, value in (extra or {}).items():
            if key == "input":
                inputs[name].add(value)
            else:
                counts[f"{name}.{key}"] += value
    return {"total": total, "self": self_time, "calls": calls, "counts": counts, "inputs": inputs}
