import builtins

import numpy as np
import pytest

from protgo import autodiff as ad
from protgo import manifest
from protgo.ingest import ASPECTS, ProteinRecord

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"


def random_corpus(n, seed=0, min_len=8, max_len=40, go_pool=12, alphabet=RESIDUES):
    """Synthetic ProteinRecords with random annotations over a small GO pool."""
    rng = np.random.default_rng(seed)
    pool = [(f"GO:{1000000 + i:07d}", ASPECTS[i % 3]) for i in range(go_pool)]
    records = []
    for i in range(n):
        length = int(rng.integers(min_len, max_len + 1))
        seq = "".join(rng.choice(list(alphabet), size=length))
        n_ann = int(rng.integers(1, 5))
        anns = frozenset(pool[j] for j in rng.choice(len(pool), size=n_ann, replace=False))
        records.append(ProteinRecord(f"P{i:04d}", seq, anns))
    return records


def write_corpus_tsv(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            anns = ";".join(f"{go}|{a.value}" for go, a in sorted(r.annotations, key=lambda x: x[0]))
            fh.write(f"{r.accession}\t{r.sequence}\t{anns}\n")


@pytest.fixture
def tiny_records():
    return random_corpus(30, seed=7)


class HalfWriter:
    """Writes half of what it is given, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


@pytest.fixture
def half_writes(monkeypatch):
    """Calling it makes every file the output writer opens take half of its
    first write and then fail."""
    def writer_open(file, mode="r", **kwargs):
        fh = builtins.open(file, mode, **kwargs)
        return HalfWriter(fh) if "w" in mode else fh

    return lambda: monkeypatch.setattr(manifest, "open", writer_open, raising=False)


def blas_threads():
    """numpy's OpenBLAS thread count, or None where it cannot be read."""
    blas = ad._openblas()
    return blas[0]() if blas else None


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS at two threads during the test: a count other than
    the pool's one, which the pool must give back."""
    blas = ad._openblas()
    previous = blas_threads()
    if blas:
        blas[1](2)
    yield
    if blas:
        blas[1](previous)


@pytest.fixture(params=[2, 3])
def split_pool(request, monkeypatch):
    """ad.cpu_pool() gets 2 or 3 workers whatever the host's CPU count, so
    training's chunks run on several workers on a one-CPU host too. A test may
    ask for other counts, 1 included, with
    @pytest.mark.parametrize("split_pool", [...], indirect=True)."""
    monkeypatch.setattr(ad, "_cpus", lambda: request.param)
    return request.param
