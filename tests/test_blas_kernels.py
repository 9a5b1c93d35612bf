"""Pack invariance of the summarizer under other OpenBLAS kernels.

OpenBLAS picks its kernel for the CPU at load time, and ``OPENBLAS_CORETYPE``
forces another one for a single process.  Each case runs a child ``python``
with that variable set for the child only.  The child prints the kernel the
bundled OpenBLAS reports, then checks that ``summarize_tracks`` gives every
track the same bits as ``forward_summarize`` of the track alone, over packs
whose row counts fall on either side of the padding quantum and of a full
pack, and that one ``gradient`` call is finite and reports the loss that
``batch_loss`` computes from the inference forward.  A kernel that the
library does not report (another architecture, or an OpenBLAS without the
kernel) is skipped.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

CHILD = r"""
import ctypes
import numpy as np


def openblas_core():
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.argtypes, fn.restype = [], ctypes.c_char_p
                    return fn().decode()
    except OSError:
        pass
    return "unknown"


print(openblas_core(), flush=True)

from cliptrack.rng import SplitMix64
from cliptrack.summarizer import (
    _PACK_ROWS, SummarizerConfig, batch_loss, forward_summarize, gradient, init_weights,
    summarize_tracks, weights_from_flat,
)
from cliptrack.training import TrainSample

rng = SplitMix64(5)
for cfg in (SummarizerConfig(16, 64, 3, 8), SummarizerConfig(5, 12, 1, 3)):
    # every parameter drawn at random, so attention is far from uniform
    w = weights_from_flat(cfg, 0.5 * rng.gauss_vector(init_weights(cfg, 0).flat.size))

    def track(n):
        return np.array([rng.gauss_vector(cfg.input_dim) for _ in range(n)])

    # lone length-1 tracks (2 rows each) and a filler that brings the pack to
    # ``rows`` rows; a track of _PACK_ROWS rows makes a pack of its own
    for rows in (15, 16, 17, 31, 33, _PACK_ROWS - 1, _PACK_ROWS, _PACK_ROWS + 1):
        lengths = [1, 1, 1, 3, rows - 11] if rows <= _PACK_ROWS else [1, 1, 1, rows - 1]
        tracks = [track(n) for n in lengths]
        packed = summarize_tracks(w, tracks)
        for t, row in zip(tracks, packed):
            alone = forward_summarize(w, t)
            assert np.array_equal(row, alone), (cfg, rows, len(t), np.abs(row - alone).max())

    samples = [
        TrainSample(track(n), ("positive",) * n, identity, 0)
        for n, identity in zip((1, 1, 2, 5, 7, 1, 3, 14), (0, 0, 1, 1, 2, 2, 3, 0))
    ]
    grads, loss = gradient(w, samples)
    assert np.isfinite(grads.flat).all()
    assert loss == batch_loss(w, samples), (loss, batch_loss(w, samples))
"""


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge", "Nehalem"])
def test_pack_invariance_on_forced_kernel(kernel):
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    core = proc.stdout.partition("\n")[0].strip()
    if core.lower() != kernel.lower():
        pytest.skip(f"OpenBLAS reports kernel {core!r} with {kernel} requested")
    if proc.returncode == -signal.SIGILL:
        pytest.skip(f"this CPU lacks the instructions of the {kernel} kernel")
    assert proc.returncode == 0, proc.stderr
