"""Evaluation suite: micro-averaged confusion metrics, ROC/AUC, subset
accuracy, and the sequence-length accuracy breakdown."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifest import atomic_open, write_json


# length buckets are BUCKET_WIDTH residues wide; lengths from OVERFLOW_AT on
# share the last bucket
BUCKET_WIDTH = 100
OVERFLOW_AT = 2000


class MetricsError(ValueError):
    pass


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class RocCurve:
    fpr: list
    tpr: list
    thresholds: list  # aligned with points; inf for the (0,0) anchor
    auc: float


@dataclass
class LengthBucketReport:
    edges: list  # bucket lower bounds; final bucket is [overflow, inf)
    counts: list
    accuracies: list  # None where count == 0


def _check_shapes(scores, targets):
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    if scores.shape != targets.shape:
        raise MetricsError(f"scores shape {scores.shape} does not match targets {targets.shape}")
    return scores, targets.astype(bool)


def confusion(scores, targets, threshold: float = 0.5) -> ConfusionCounts:
    scores, targets = _check_shapes(scores, targets)
    predicted = scores >= threshold
    return ConfusionCounts(
        tp=int(np.sum(predicted & targets)),
        fp=int(np.sum(predicted & ~targets)),
        fn=int(np.sum(~predicted & targets)),
        tn=int(np.sum(~predicted & ~targets)),
    )


def prf1(counts: ConfusionCounts) -> tuple:
    """(precision, recall, f1); every 0/0 evaluates to 0."""
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def micro_accuracy(counts: ConfusionCounts) -> float:
    return (counts.tp + counts.tn) / counts.total if counts.total else 0.0


def subset_accuracy(scores, targets, threshold: float = 0.5) -> float:
    scores, targets = _check_shapes(scores, targets)
    predicted = scores >= threshold
    return float(np.mean(np.all(predicted == targets, axis=-1)))


def micro_roc(scores, targets) -> RocCurve:
    """Micro-averaged ROC: pool every (sample, label) cell, sweep thresholds
    at each distinct score (ties collapse to one step), trapezoidal AUC."""
    scores, targets = _check_shapes(scores, targets)
    flat_scores = scores.ravel()
    flat_bits = targets.ravel()
    n_pos = int(flat_bits.sum())
    n_neg = flat_bits.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("ROC undefined: targets are all-positive or all-negative")
    order = np.argsort(-flat_scores, kind="stable")
    sorted_scores = flat_scores[order]
    # one curve point after the last cell of each run of equal scores
    ends = np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]), flat_bits.size - 1)
    tp = np.cumsum(flat_bits[order])[ends]
    fp = ends + 1 - tp
    fpr = np.concatenate(([0.0], fp / n_neg))
    tpr = np.concatenate(([0.0], tp / n_pos))
    # the trapezoid rule, written out so no numpy-version shim is needed
    auc = float((np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0).sum())
    thresholds = [float("inf")] + sorted_scores[ends].tolist()
    return RocCurve(fpr=fpr.tolist(), tpr=tpr.tolist(), thresholds=thresholds, auc=auc)


def length_analysis(original_lengths, scores, targets, threshold: float = 0.5) -> LengthBucketReport:
    """Per-length-bucket subset accuracy; records bucketed by their
    pre-truncation residue count."""
    scores, targets = _check_shapes(scores, targets)
    lengths = list(original_lengths)
    if len(lengths) != scores.shape[0]:
        raise MetricsError(f"{len(lengths)} lengths for {scores.shape[0]} score rows")
    predicted = scores >= threshold
    correct = np.all(predicted == targets, axis=-1)
    edges = list(range(0, OVERFLOW_AT, BUCKET_WIDTH)) + [OVERFLOW_AT]
    counts = [0] * len(edges)
    hits = [0] * len(edges)
    for length, ok in zip(lengths, correct):
        idx = min(length // BUCKET_WIDTH, len(edges) - 1)
        counts[idx] += 1
        hits[idx] += int(ok)
    accuracies = [hits[i] / counts[i] if counts[i] else None for i in range(len(edges))]
    return LengthBucketReport(edges=edges, counts=counts, accuracies=accuracies)


def aspect_report(scores, targets, threshold: float, auc, sla: LengthBucketReport) -> dict:
    """All headline metrics for one aspect at one threshold, JSON-ready.
    `auc` (None where the ROC is undefined) does not depend on the threshold,
    so callers compute it once per aspect; `sla` is this threshold's
    length_analysis."""
    counts = confusion(scores, targets, threshold)
    p, r, f1 = prf1(counts)
    return {
        "threshold": threshold,
        "subset_accuracy": subset_accuracy(scores, targets, threshold),
        "micro_accuracy": micro_accuracy(counts),
        "precision": p,
        "recall": r,
        "f1": f1,
        "confusion": {"tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "tn": counts.tn},
        "auc": auc,
        "length_buckets": [
            {"lo": sla.edges[i],
             "hi": (sla.edges[i + 1] if i + 1 < len(sla.edges) else None),
             "count": sla.counts[i],
             "accuracy": sla.accuracies[i]}
            for i in range(len(sla.edges))
        ],
    }


def write_roc_csv(curve: RocCurve, path) -> None:
    with atomic_open(path) as fh:
        fh.write("fpr,tpr,threshold\n")
        for f, t, th in zip(curve.fpr, curve.tpr, curve.thresholds):
            fh.write(f"{f:.10g},{t:.10g},{th:.10g}\n")


def write_sla_csv(report: LengthBucketReport, path) -> None:
    with atomic_open(path) as fh:
        fh.write("bucket_lo,bucket_hi,count,accuracy\n")
        for i, lo in enumerate(report.edges):
            hi = report.edges[i + 1] if i + 1 < len(report.edges) else ""
            acc = "" if report.accuracies[i] is None else f"{report.accuracies[i]:.10g}"
            fh.write(f"{lo},{hi},{report.counts[i]},{acc}\n")


def write_report_json(per_aspect: dict, path) -> None:
    write_json(path, per_aspect)
