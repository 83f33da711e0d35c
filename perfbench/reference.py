"""Host-speed reference for the end-to-end times.

This benchmark runs on a few vCPUs of a shared host whose speed changes with
what other tenants do, in spells that last from seconds to minutes. Two runs
of the same code a few minutes apart can then differ by 20-30% in raw
throughput, which no statistic over a 25-second run removes.

So a fixed reference kernel, independent of protgo and of the seed, is timed
before and after every set-up and every timed cycle. Its inputs never
change, so its time tracks only the host's speed at that moment. Each
set-up's and each cycle's times are scaled by the kernel's REFERENCE_S over
the mean of the two kernel times around them, which gives the time they
would have taken at the speed where the kernel takes REFERENCE_S. The raw
figures are reported next to the result.

A kernel only tracks work that the host slows in the same way, so there are
two, and each workload names the one like its timed stages:

  interpreter  k-mer multiset overlaps of fixed strings, the same kind of
               interpreter work as the splitter. On a 9-minute trace of the
               corpus split, 30-second means spread 0.12 (IQR over median)
               raw and 0.05 scaled.
  numpy        attention scores, softmax and a d64 projection at batch 8 x
               500 tokens, the encoder's shapes. On a 5-minute trace of the
               train cycle, 25-second means spread 0.14 raw and 0.04 scaled;
               the interpreter kernel left them at 0.12.
"""

from __future__ import annotations

import gc
import random
import time
from collections import Counter

import numpy as np

# each kernel's time, on a 2-vCPU x86 host, that scaled times refer to
REFERENCE_S = {"interpreter": 0.1, "numpy": 0.13}
K, LENGTH, SEQUENCES, PARTNERS = 5, 300, 80, 10
BATCH, HEADS, TOKENS, HEAD_DIM, DIM = 8, 4, 500, 16, 64


def _kmers(seq):
    return Counter(seq[i:i + K] for i in range(len(seq) - K + 1))


def _interpreter_kernel():
    rng = random.Random(0)
    seqs = ["".join(rng.choice("ACDEFGHIKLMNPQRSTVWY") for _ in range(LENGTH)) for _ in range(SEQUENCES)]

    def run():
        for a in seqs:
            ca = _kmers(a)
            for b in seqs[:PARTNERS]:
                ca & _kmers(b)
    return run


def _numpy_kernel():
    rng = np.random.default_rng(0)
    q, k = rng.standard_normal((2, BATCH, HEADS, TOKENS, HEAD_DIM))
    x, w = rng.standard_normal((BATCH, TOKENS, DIM)), rng.standard_normal((DIM, DIM))

    def run():
        for _ in range(2):
            s = q @ k.swapaxes(-1, -2)
            s = np.exp(s - s.max(-1, keepdims=True))
            s /= s.sum(-1, keepdims=True)
            np.tanh(x @ w)
    return run


KERNELS = {"interpreter": _interpreter_kernel, "numpy": _numpy_kernel}


class HostSpeed:
    """Times one reference kernel, with the garbage collector off so that the
    program's heap does not slow it.

    Call `sample` once before the first timed piece of work and once after
    each; `factors` then gives, per piece, the kernel's REFERENCE_S over the
    mean kernel time of the two samples around it."""

    def __init__(self, kernel):
        self.reference_s = REFERENCE_S[kernel]
        self.run = KERNELS[kernel]()
        self.samples = []

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.run()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def factors(self):
        return [2 * self.reference_s / (a + b) for a, b in zip(self.samples, self.samples[1:])]
