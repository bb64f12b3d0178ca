"""Machine-speed calibration: a fixed loop timed next to every op.

The benchmark runs on shared hosts whose per-core speed drifts by 20-60%
over minutes, which moves every op time with it.  A fixed calibration
loop, timed right before and right after each op, measures that drift;
an op's normalised time is its wall time scaled by the loop's reference
time over the mean of its two calibration times, i.e. the op time on a
machine where each part of the loop takes its time in ``REF_MS``.

Host load slows interpreter-bound and memory-bound code by different
amounts, so each workload names the parts of the loop that do its kind of
work (``calibration`` on each workload class):

small_outer  rank-1 updates of a 64 x 16 product (``linalg.matmul``'s loop
             at bidir-ctx's skinny shapes; small numpy calls from Python,
             as in tree-embed's stress passes)
exp          ``exp`` over 512 KiB (softmax)
matmul       a 256 x 256 BLAS product
wide_outer   rank-1 updates of a 1024 x 64 product (``linalg.matmul``'s
             loop at square-1k's shapes, 512 KiB per term)
block        writing then summing 8 MiB (square-1k's dense n*m temporaries)

The loop calls nothing in geoattn and writes only into buffers it
allocated once, so neither the library's code nor the allocator state it
leaves behind changes what the loop does.
"""

import time

import numpy as np

# Reference time of each part, in ms: about its median on the machine the
# baseline figures come from (2-vCPU Intel Xeon VM, numpy 2.4, one OpenBLAS
# thread), so normalised times are close to wall times there.
REF_MS = {"small_outer": 3.5, "exp": 0.1, "matmul": 0.8, "wide_outer": 4.0, "block": 1.5}


class Calibration:
    def __init__(self, parts):
        rng = np.random.default_rng(0)  # fixed: the loop never depends on a seed
        self.a = rng.standard_normal((64, 512))
        self.b = rng.standard_normal((512, 16))
        self.small_acc = np.empty((64, 16))
        self.x = rng.standard_normal((1024, 64))
        self.y = rng.standard_normal((64, 64))
        self.wide_acc = np.empty((1024, 64))
        self.wide_term = np.empty((1024, 64))
        self.e = rng.standard_normal((256, 256))
        self.e_out = np.empty_like(self.e)
        self.m = rng.standard_normal((256, 256))
        self.m_out = np.empty_like(self.m)
        self.block = np.empty(1 << 20)
        self.parts = [getattr(self, "_" + p) for p in parts]
        self.ref_ms = sum(REF_MS[p] for p in parts)

    def _small_outer(self):
        acc = self.small_acc
        acc.fill(0.0)
        for k in range(512):
            acc += np.outer(self.a[:, k], self.b[k, :])
        return acc[0, 0]

    def _wide_outer(self):
        acc, term = self.wide_acc, self.wide_term
        acc.fill(0.0)
        for k in range(32):
            np.multiply(self.x[:, k, None], self.y[None, k, :], out=term)
            acc += term
        return acc[0, 0]

    def _exp(self):
        return np.exp(self.e, out=self.e_out)[0, 0]

    def _matmul(self):
        return np.matmul(self.m, self.m, out=self.m_out)[0, 0]

    def _block(self):
        self.block.fill(1.0)
        return self.block.sum()

    def ms(self) -> float:
        """Wall time of one pass of the loop, in milliseconds."""
        t0 = time.perf_counter_ns()
        for part in self.parts:
            part()
        return (time.perf_counter_ns() - t0) / 1e6

    def normalised(self, wall: float, cal_ms: float) -> float:
        """``wall``, measured where the loop took ``cal_ms``, scaled to a
        machine where it takes its reference time."""
        return wall * self.ref_ms / cal_ms
