"""Dataset splitting: random 8:1:1 and cluster-aware splits.

All randomness comes from numpy's PCG64 generator seeded explicitly, so a
(records, seed, parameters) triple always produces the same split on any
platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import ASPECTS, RESIDUE_ALPHABET
from .manifest import atomic_open, write_json


class SplitError(ValueError):
    pass


@dataclass
class DatasetSplit:
    train: list
    dev: list
    test: list
    seed: int
    kind: str  # "random" | "clustered"
    identity_threshold: float | None = None

    def all_accessions(self) -> set:
        return set(self.train) | set(self.dev) | set(self.test)


@dataclass
class ClusterAssignment:
    cluster_of: dict  # accession -> cluster id
    representative: dict  # cluster id -> accession

    @property
    def num_clusters(self) -> int:
        return len(self.representative)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_split(accessions, seed: int) -> DatasetSplit:
    accessions = list(accessions)
    n = len(accessions)
    if n < 10:
        raise SplitError(f"random split needs at least 10 records, got {n}")
    order = list(accessions)
    _rng(seed).shuffle(order)
    hold = n // 10
    return DatasetSplit(
        train=order[: n - 2 * hold],
        dev=order[n - 2 * hold : n - hold],
        test=order[n - hold :],
        seed=seed,
        kind="random",
    )


_DIGIT = np.array([RESIDUE_ALPHABET.find(chr(byte)) for byte in range(256)], dtype=np.int64)


def _check_kmer(k: int) -> None:
    if not 2 <= k <= 13:  # 25 ** 13 < 2 ** 63: every k-mer code fits in int64
        raise SplitError(f"kmer must be in [2, 13], got {k}")


def _kmer_codes(sequence: str, k: int):
    """Sorted distinct k-mer codes of `sequence` (each k-mer read as a base-25
    number over RESIDUE_ALPHABET, int64) and the count of each (int32)."""
    _check_kmer(k)
    digits = _DIGIT[np.frombuffer(sequence.encode("latin-1", "replace"), np.uint8)]
    if (digits < 0).any():
        raise SplitError(f"sequence holds {sequence[int(np.argmax(digits < 0))]!r}, not a residue letter")
    codes = digits[:max(len(digits) - k + 1, 0)]
    for j in range(1, k):
        codes = codes * len(RESIDUE_ALPHABET) + digits[j:j + len(codes)]
    codes, counts = np.unique(codes, return_counts=True)
    return codes, counts.astype(np.int32)


def kmer_similarity(a, b) -> float:
    """Shared k-mer multiset size over the smaller k-mer count of two `_kmer_codes` tables for one k."""
    (codes_a, counts_a), (codes_b, counts_b) = sorted((a, b), key=lambda table: len(table[0]))
    at = np.minimum(np.searchsorted(codes_b, codes_a), len(codes_b) - 1)
    hit = codes_b[at] == codes_a
    return int(np.minimum(counts_a[hit], counts_b[at[hit]]).sum()) / max(int(min(counts_a.sum(), counts_b.sum())), 1)


def cluster_sequences(records, identity_threshold: float = 0.5, kmer: int = 5) -> ClusterAssignment:
    """Greedy single-linkage clustering against cluster representatives.

    Records are visited in descending sequence length (accession as a
    deterministic tie-break); each joins the first representative with
    similarity >= identity_threshold, else founds a new cluster.

    An inverted index from each k-mer's integer code to the clusters whose
    representative holds it sums, per representative, the record's counts of
    the k-mers they share. That sum bounds the shared multiset from above, and
    no representative is shorter than the record, so the denominator is the
    record's own k-mer count: kmer_similarity only runs where that bound
    reaches the threshold, and the assignment is unchanged.
    """
    _check_kmer(kmer)
    if not 0.0 < identity_threshold <= 1.0:
        raise SplitError(f"identity_threshold must be in (0, 1], got {identity_threshold}")
    ordered = sorted(records, key=lambda r: (-len(r.sequence), r.accession))
    cluster_of = {}
    representative = {}
    rep_tables = []  # representative's _kmer_codes table per cluster id, in founding order
    clusters_with = {}  # k-mer code -> ids of the clusters whose representative holds it
    for record in ordered:
        table = _kmer_codes(record.sequence, kmer)
        codes, counts = (a.tolist() for a in table)
        n = len(record.sequence) - kmer + 1
        bound = {}
        for km, c in zip(codes, counts):
            for cid in clusters_with.get(km, ()):
                bound[cid] = bound.get(cid, 0) + c
        candidates = sorted(cid for cid, b in bound.items() if b / n >= identity_threshold)
        cid = next((cid for cid in candidates
                    if kmer_similarity(table, rep_tables[cid]) >= identity_threshold), None)
        if cid is None:
            cid = len(representative)
            representative[cid] = record.accession
            rep_tables.append(table)
            for km in codes:
                clusters_with.setdefault(km, []).append(cid)
        cluster_of[record.accession] = cid
    return ClusterAssignment(cluster_of=cluster_of, representative=representative)


def clustered_split(assignment: ClusterAssignment, ratios=(1 / 3, 1 / 3, 1 / 3), seed: int = 0,
                    identity_threshold: float | None = None) -> DatasetSplit:
    """Shuffle clusters, then assign each whole cluster to the split currently
    furthest below its target record count."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SplitError(f"ratios must sum to 1, got {ratios}")
    if assignment.num_clusters < 3:
        raise SplitError(f"clustered split needs at least 3 clusters, got {assignment.num_clusters}")
    members = {cid: [] for cid in assignment.representative}
    for accession in sorted(assignment.cluster_of):
        members[assignment.cluster_of[accession]].append(accession)
    n = len(assignment.cluster_of)
    targets = [r * n for r in ratios]
    cluster_ids = sorted(members)
    _rng(seed).shuffle(cluster_ids)
    buckets = [[], [], []]
    sizes = [0, 0, 0]
    for cid in cluster_ids:
        deficits = [targets[i] - sizes[i] for i in range(3)]
        dest = max(range(3), key=lambda i: deficits[i])
        buckets[dest].extend(members[cid])
        sizes[dest] += len(members[cid])
    return DatasetSplit(
        train=buckets[0],
        dev=buckets[1],
        test=buckets[2],
        seed=seed,
        kind="clustered",
        identity_threshold=identity_threshold,
    )


def audit_leakage(split: DatasetSplit, assignment: ClusterAssignment) -> list:
    """Return the cluster ids whose members span more than one split side."""
    if split.all_accessions() != set(assignment.cluster_of):
        raise SplitError("split and cluster assignment cover different accession sets")
    side_of = {}
    for side, accs in (("train", split.train), ("dev", split.dev), ("test", split.test)):
        for a in accs:
            side_of[a] = side
    sides_per_cluster = {}
    for accession, cid in assignment.cluster_of.items():
        sides_per_cluster.setdefault(cid, set()).add(side_of[accession])
    return sorted(cid for cid, sides in sides_per_cluster.items() if len(sides) > 1)


SPLIT_FILES = ("train.ids", "dev.ids", "test.ids", "split.json")


def write_split(split: DatasetSplit, out_dir, per_aspect_counts=None) -> None:
    """Write train.ids/dev.ids/test.ids plus a JSON manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, accs in (("train", split.train), ("dev", split.dev), ("test", split.test)):
        with atomic_open(out_dir / f"{name}.ids") as fh:
            for a in accs:
                fh.write(a + "\n")
    manifest = {
        "kind": split.kind,
        "seed": split.seed,
        "identity_threshold": split.identity_threshold,
        "counts": {"train": len(split.train), "dev": len(split.dev), "test": len(split.test)},
    }
    if per_aspect_counts is not None:
        manifest["per_aspect_counts"] = per_aspect_counts
    write_json(out_dir / "split.json", manifest)


def per_aspect_counts(split: DatasetSplit, records_by_accession) -> dict:
    """Per-split counts of records carrying at least one term of each aspect."""
    out = {}
    for name, accs in (("train", split.train), ("dev", split.dev), ("test", split.test)):
        row = {"proteins": len(accs)}
        for aspect in ASPECTS:
            row[aspect.value] = sum(1 for a in accs if records_by_accession[a].terms(aspect))
        out[name] = row
    return out


def read_split(split_dir) -> DatasetSplit:
    split_dir = Path(split_dir)
    with open(split_dir / "split.json", "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise SplitError(f"{split_dir / 'split.json'} is not JSON: {exc}") from None
    if not isinstance(manifest, dict) or not {"seed", "kind"} <= manifest.keys():
        raise SplitError(f"{split_dir / 'split.json'} does not record the split's seed and kind")
    parts = {}
    for name in ("train", "dev", "test"):
        with open(split_dir / f"{name}.ids", "r", encoding="utf-8") as fh:
            parts[name] = [line.strip() for line in fh if line.strip()]
    return DatasetSplit(
        train=parts["train"],
        dev=parts["dev"],
        test=parts["test"],
        seed=manifest["seed"],
        kind=manifest["kind"],
        identity_threshold=manifest.get("identity_threshold"),
    )
