"""Three-aspect fusion: run the BP/MF/CC models on one sequence and union
their thresholded predictions into the final annotation set."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

from . import autodiff as ad
from . import model as model_mod
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
    truncated: bool = False  # the sequence was longer than the models' max_len: its prefix was scored


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
        self.max_len = min(m.config.max_len for m in self.models.values())
        self.shared_layers = _shared_layers([self.models[a] for a in ASPECTS])

    def set_threshold(self, t: float) -> None:
        self.threshold = check_threshold(t)

    def predict(self, sequence: str, accession: str = "-") -> Prediction:
        ids, mask = model_mod.pad_batch([tokenize(sequence, self.max_len)])
        k = self.shared_layers
        scores, terms = {}, []
        with ad.no_grad():
            # the shared prefix runs once, and each aspect goes on from its activation
            x = self.models[ASPECTS[0]].encode(ids, mask, stop=k) if k else None
            for aspect in ASPECTS:
                probs = scores[aspect] = ad.sigmoid(self.models[aspect].forward_classify(ids, mask, x=x, start=k).data)[0]
                terms += [(go_id, aspect, float(p)) for go_id, p in zip(self.vocabs[aspect].terms, probs)
                          if p >= self.threshold]
        return Prediction(accession=accession, scores=scores, predicted_terms=terms,
                          truncated=len(sequence) > self.max_len)


def _shared_layers(models):
    """How many leading encoder layers all the models hold bit for bit, after the
    embedding tables, which they must hold too; 0 when they do not."""
    first, *rest = models
    if any(replace(m.config, num_labels=first.config.num_labels) != first.config for m in rest):
        return 0
    groups = model_mod.parameter_groups(first.config)[:3 + first.config.num_layers]  # embeddings, then layers
    same = [all(first.params[n].data.tobytes() == m.params[n].data.tobytes() for m in rest for n in first.params
                if model_mod.group_of(n) == group) for group in groups] + [False]
    return max(same.index(False) - 3, 0)


def format_prediction(pred: Prediction) -> str:
    if not pred.predicted_terms:
        return f"{pred.accession}\t-\t-\t-\n"
    return "".join(f"{pred.accession}\t{go_id}\t{aspect.value}\t{score:.6f}\n"
                   for go_id, aspect, score in pred.predicted_terms)


def _parse_line(line: str, line_no: int):
    """The (sequence, accession) query of one input line, or the IngestError rejecting it."""
    cols = line.rstrip("\n").split("\t")
    if len(cols) not in (2, 3):
        return IngestError(f"expected 2 or 3 tab-separated columns, got {len(cols)}")
    if not cols[0]:
        return IngestError("empty accession")
    try:
        return _check_sequence(cols[1], line_no), cols[0]
    except IngestError as exc:
        return exc


def longest_first(pool, fusion, queries):
    """Yields, in input order, the future Prediction of each (sequence, accession)
    query, or the exception given in its place. The queries go to the pool longest
    first, so a long one queued last cannot leave the other workers idle."""
    valid = sorted((i for i, q in enumerate(queries) if isinstance(q, tuple)), key=lambda i: -len(queries[i][0]))
    futures = {i: pool.submit(fusion.predict, *queries[i]) for i in valid}
    yield from (futures.get(i, query) for i, query in enumerate(queries))


def predict_batch(input_path, fusion: FusionModel, output_path, diagnostics=None) -> tuple:
    """Stream a TSV input, BLOCK_LINES lines at a time, through the fusion model on the pool (longest_first);
    per-record errors are reported (via the diagnostics callback) and skipped, in input order.
    Returns the count of queries written and of those whose prefix alone was scored (Prediction.truncated)."""
    processed = truncated = 0
    with open(input_path, "r", encoding="utf-8") as infh, atomic_open(output_path) as outfh, ad.cpu_pool() as pool:
        lines = enumerate(infh, start=1)
        while block := list(islice(lines, BLOCK_LINES)):
            queries = [(n, _parse_line(line, n)) for n, line in block if line.rstrip("\n") and not line.startswith("#")]
            for (line_no, _), job in zip(queries, longest_first(pool, fusion, [q for _, q in queries])):
                error = job if isinstance(job, IngestError) else job.exception()
                if isinstance(error, (IngestError, FusionError)):
                    if diagnostics is not None:
                        diagnostics(f"line {line_no}: {error}")
                    continue
                prediction = job.result()
                outfh.write(format_prediction(prediction))
                processed += 1
                truncated += prediction.truncated
    return processed, truncated
