"""Three-aspect fusion: run the BP/MF/CC models on one sequence and union
their thresholded predictions into the final annotation set."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from . import autodiff as ad
from .ingest import ASPECTS, IngestError, _check_sequence, tokenize
from .manifest import atomic_open

BLOCK_LINES = 256  # input lines parsed, and their queries queued for scoring, at a time


class FusionError(ValueError):
    pass


@dataclass
class Prediction:
    accession: str
    scores: dict  # GoAspect -> np.ndarray of probabilities, vocab order
    predicted_terms: list  # (go_id, GoAspect, score), score >= threshold


def check_labels(model, vocab) -> None:
    """FusionError unless the model scores one label per vocabulary term."""
    if model.config.num_labels != len(vocab):
        raise FusionError(
            f"aspect {vocab.aspect.value}: model has {model.config.num_labels} labels "
            f"but vocabulary has {len(vocab)} terms"
        )


def check_threshold(t: float) -> float:
    if not 0.0 <= t <= 1.0:  # nan fails too
        raise FusionError(f"threshold out of [0,1]: {t}")
    return float(t)


class FusionModel:
    def __init__(self, models: dict, vocabs: dict, threshold: float = 0.5):
        for aspect in ASPECTS:
            if aspect not in models:
                raise FusionError(f"missing model for aspect {aspect.value}")
            if aspect not in vocabs:
                raise FusionError(f"missing vocabulary for aspect {aspect.value}")
            check_labels(models[aspect], vocabs[aspect])
        self.models = dict(models)
        self.vocabs = dict(vocabs)
        self.set_threshold(threshold)
        self._max_len = min(m.config.max_len for m in self.models.values())

    def set_threshold(self, t: float) -> None:
        self.threshold = check_threshold(t)

    def predict(self, sequence: str, accession: str = "-") -> Prediction:
        tokens = tokenize(sequence, self._max_len)
        scores = {}
        terms = []
        for aspect in ASPECTS:
            probs = scores[aspect] = self.models[aspect].score([tokens])[0]
            terms += [(go_id, aspect, float(p)) for go_id, p in zip(self.vocabs[aspect].terms, probs)
                      if p >= self.threshold]
        return Prediction(accession=accession, scores=scores, predicted_terms=terms)


def format_prediction(pred: Prediction) -> str:
    if not pred.predicted_terms:
        return f"{pred.accession}\t-\t-\t-\n"
    lines = []
    for go_id, aspect, score in pred.predicted_terms:
        lines.append(f"{pred.accession}\t{go_id}\t{aspect.value}\t{score:.6f}\n")
    return "".join(lines)


def _submit_line(pool, fusion, line: str, line_no: int):
    """The future Prediction of one input line, parsed here, or the IngestError rejecting it."""
    cols = line.rstrip("\n").split("\t")
    if len(cols) not in (2, 3):
        return IngestError(f"expected 2 or 3 tab-separated columns, got {len(cols)}")
    if not cols[0]:
        return IngestError("empty accession")
    try:
        return pool.submit(fusion.predict, _check_sequence(cols[1], line_no), cols[0])
    except IngestError as exc:
        return exc


def predict_batch(input_path, fusion: FusionModel, output_path, diagnostics=None) -> int:
    """Stream a TSV input, BLOCK_LINES lines at a time, through the fusion model on the pool;
    per-record errors are reported (via the diagnostics callback) and skipped, in input order."""
    processed = 0
    with open(input_path, "r", encoding="utf-8") as infh, atomic_open(output_path) as outfh, ad.cpu_pool() as pool:
        lines = enumerate(infh, start=1)
        while block := list(islice(lines, BLOCK_LINES)):
            jobs = [(n, _submit_line(pool, fusion, line, n))
                    for n, line in block if line.rstrip("\n") and not line.startswith("#")]
            for line_no, job in jobs:
                error = job if isinstance(job, IngestError) else job.exception()
                if isinstance(error, (IngestError, FusionError)):
                    if diagnostics is not None:
                        diagnostics(f"line {line_no}: {error}")
                    continue
                outfh.write(format_prediction(job.result()))
                processed += 1
    return processed
