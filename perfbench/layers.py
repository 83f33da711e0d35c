"""Per-layer metrics derived from the tracer's spans and counters.

Every value covers one cycle of the timed stages (traced cycles are
averaged) plus the set-up's preprocess runs, which build every workload's
inputs; the rest of the set-up (annotate's split and checkpoint training) is
not counted. `.s` is inclusive seconds, `.self_s` is self
seconds, the rest are counts. A metric whose span or counter was not
installed, because the program no longer has that name, is left out.

`ROWS` is the only list of these metrics: `derive` emits from it, and
`python3 perfbench/layers.py` prints the `per_layer` list of BENCHMARK.json
from it, which the traced run checks against the file.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

STAGES = ("preprocess", "split", "pretrain", "finetune", "predict", "evaluate")
AUTODIFF_OPS = ("matmul", "add", "scale", "softmax", "gelu", "layer_norm", "add_constant",
                "transpose", "reshape", "embedding_lookup", "dropout")
# autodiff functions that are not graph ops and have rows of their own
AUTODIFF_NON_OPS = ("sigmoid",)
# stands for the span name of each autodiff function that is neither in
# AUTODIFF_OPS nor in AUTODIFF_NON_OPS, found by introspection when the tracer
# is installed
OTHER = "{other}"
# fields read from a span's [calls, inclusive s, self s] row
SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2}
# fields whose spans' time, and everything below them, the row accounts for
INCLUSIVE_FIELDS = ("s",)
TRACE_OVERHEAD = "trace.overhead_ratio"


class Row(NamedTuple):
    """One per-layer metric. `field` is a SPAN_FIELDS key summed over
    `spans`, "count" (the sum of `counters`), "ratio" (counters[0] over
    counters[1]) or a key of `seq_percentiles` over the per-sequence
    predict times. The metric is emitted when `spans` is empty or one of
    them was installed, and none of its counters failed."""
    metric: str
    unit: str
    field: str
    spans: tuple = ()
    counters: tuple = ()
    better: str = "lower"


def _rows():
    rows = [Row(f"cli.{st}.self_s", "s", "self_s", (f"cli.cmd_{st}",)) for st in STAGES]
    # argument parsing and dispatch around the command
    rows.append(Row("cli.main.self_s", "s", "self_s", ("cli.main", "cli.build_parser")))
    for fn in ("parse_tsv", "tokenize", "build_vocabulary", "read_vocabulary", "write_vocabulary",
               "encode_labels"):
        rows.append(Row(f"ingest.{fn}.s", "s", "s", (f"ingest.{fn}",)))
        if fn == "tokenize":
            rows.append(Row("ingest.tokenize.calls", "count", "calls", ("ingest.tokenize",)))
    rows.append(Row("ingest.terms.s", "s", "s", ("ingest.ProteinRecord.terms",)))

    for fn in ("cluster_sequences", "kmer_similarity", "clustered_split", "audit_leakage"):
        rows.append(Row(f"splitter.{fn}.s", "s", "s", (f"splitter.{fn}",)))
    rows += [
        Row("splitter.kmer_similarity.calls", "count", "calls", ("splitter.kmer_similarity",)),
        Row("splitter.clusters", "count", "count", ("splitter.cluster_sequences",), ("splitter.clusters",),
            "higher"),
    ]

    for op in AUTODIFF_OPS + ("other",):
        fn = OTHER if op == "other" else f"autodiff.{op}"
        rows += [
            Row(f"autodiff.{op}.fwd_s", "s", "s", (fn,)),
            Row(f"autodiff.{op}.bwd_s", "s", "s", (f"{fn}.bwd",)),
            Row(f"autodiff.{op}.calls", "count", "calls", (fn,)),
            Row(f"autodiff.{op}.out_bytes", "bytes", "count", (fn,), (f"{fn}.out_bytes",)),
        ]
    backward = ("autodiff.Tensor.backward",)
    rows += [
        Row("autodiff.backward.s", "s", "s", backward),
        Row("autodiff.backward.self_s", "s", "self_s", backward),
        Row("autodiff.graph_nodes", "count", "count", (), ("autodiff.graph_nodes",)),
        Row("autodiff.graph_bytes", "bytes", "count", (), ("autodiff.graph_bytes",)),
        Row("autodiff.sigmoid.s", "s", "s", ("autodiff.sigmoid",)),
    ]

    enc = "model.ProteinEncoder"
    forwards = (f"{enc}.forward_classify", f"{enc}.forward_mlm")
    rows += [
        Row("model.embed.s", "s", "s", (f"{enc}.embed",)),
        Row("model.encoder_layer.s", "s", "s", (f"{enc}.encoder_layer",)),
        Row("model.encoder_layer.self_s", "s", "self_s", (f"{enc}.encoder_layer",)),
        Row("model.forward.calls", "count", "calls", forwards),
        Row("model.real_token_ratio", "ratio", "ratio", forwards, ("model.mask_sum", "model.mask_cells"),
            "higher"),
        Row("model.init.calls", "count", "calls", (f"{enc}.__init__",)),
        Row("model.pad_batch.s", "s", "s", ("model.pad_batch",)),
    ]

    rows += [
        Row("training.train_loop.self_s", "s", "self_s", ("training.train_loop",)),
        Row("training.adam_step.s", "s", "s", ("training.adam_step",)),
        Row("training.adam_step.calls", "count", "calls", ("training.adam_step",)),
        Row("training.mask_tokens.s", "s", "s", ("training.mask_tokens",)),
        Row("training.loss.s", "s", "s", ("training.mlm_loss", "training.finetune_loss")),
    ]

    save, load = ("checkpoint.save_checkpoint",), ("checkpoint.load_checkpoint",)
    rows += [
        Row("checkpoint.save.s", "s", "s", save),
        Row("checkpoint.save.calls", "count", "calls", save),
        Row("checkpoint.load.s", "s", "s", load),
        Row("checkpoint.load.calls", "count", "calls", load),
        Row("checkpoint.save.bytes", "bytes", "count", save, ("checkpoint.save.bytes",)),
    ]

    fp = ("fusion.FusionModel.predict",)
    rows += [
        Row("fusion.predict.s", "s", "s", fp),
        Row("fusion.predict.calls", "count", "calls", fp),
        Row("fusion.predict.self_s", "s", "self_s", fp),
        Row("fusion.seq_ms.p50", "ms", "p50", fp),
        Row("fusion.seq_ms.tail", "ms", "tail", fp),
        Row("fusion.seq_ms.tail_pct", "%", "tail_pct", fp, better="higher"),
        Row("fusion.seq_ms.tail_n", "count", "tail_n", fp, better="higher"),
        Row("fusion.predict_batch.self_s", "s", "self_s", ("fusion.predict_batch",)),
    ]

    roc = ("metrics.micro_roc",)
    rows += [
        Row("metrics.micro_roc.s", "s", "s", roc),
        Row("metrics.micro_roc.calls", "count", "calls", roc),
        Row("metrics.micro_roc.cells", "count", "count", roc, ("metrics.micro_roc.cells",)),
        Row("metrics.aspect_report.self_s", "s", "self_s", ("metrics.aspect_report",)),
        Row("metrics.length_analysis.calls", "count", "calls", ("metrics.length_analysis",)),
        Row("metrics.write.s", "s", "s",
            ("metrics.write_roc_csv", "metrics.write_sla_csv", "metrics.write_report_json")),
        Row("manifest.write.s", "s", "s", ("manifest.write_manifest",)),
        Row("manifest.hashed_bytes", "bytes", "count", ("manifest.sha256_file",), ("manifest.hashed_bytes",)),
    ]
    return rows


ROWS = _rows()


def per_layer():
    """The `per_layer` list of BENCHMARK.json."""
    rows = [{"name": r.metric, "unit": r.unit, "better": r.better} for r in ROWS]
    return rows + [{"name": TRACE_OVERHEAD, "unit": "ratio", "better": "lower"}]


def seq_percentiles(samples_ms):
    """Median and the highest whole percentile with at least ten samples
    beyond it, with that percentile and the sample count."""
    n = len(samples_ms)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "tail_n": 0}
    pct = max(0, math.floor(100 * (n - 10) / n))
    return {"p50": float(np.median(samples_ms)), "tail": float(np.percentile(samples_ms, pct)),
            "tail_pct": float(pct), "tail_n": n}


def _expand(names, others):
    """Replaces OTHER in span and counter names by each pooled autodiff function."""
    out = []
    for name in names:
        out += [name.replace(OTHER, o) for o in others] if OTHER in name else [name]
    return out


def emitted_rows(tracer):
    """(row, spans, counters) of every row that is emitted, with OTHER expanded."""
    functions = {n for n in tracer.names if n.startswith("autodiff.") and n.count(".") == 1}
    others = sorted(functions - {f"autodiff.{op}" for op in AUTODIFF_OPS + AUTODIFF_NON_OPS})
    for row in ROWS:
        spans, counters = _expand(row.spans, others), _expand(row.counters, others)
        installed = not spans or any(s.removesuffix(".bwd") in tracer.names for s in spans)
        if installed and not any(c in tracer.broken for c in counters):
            yield row, spans, counters


def covered_spans(tracer):
    """(names whose self time a row reports, names whose whole subtree a row reports)."""
    own, subtree = set(), set()
    for row, spans, _ in emitted_rows(tracer):
        if row.field in SPAN_FIELDS and row.field != "calls":
            own.update(spans)
            if row.field in INCLUSIVE_FIELDS:
                subtree.update(spans)
    return own, subtree


def derive(tracer, stats, counts, seq_ms, overhead_ratio):
    """stats: span name -> [calls, inclusive s, self s]; counts: counter -> value."""
    seq = seq_percentiles(seq_ms)
    out = {}
    for row, spans, counters in emitted_rows(tracer):
        if row.field in SPAN_FIELDS:
            k = SPAN_FIELDS[row.field]
            value = sum(stats[s][k] for s in spans if s in stats)
        elif row.field == "count":
            value = sum(counts.get(c, 0.0) for c in counters)
        elif row.field == "ratio":
            den = counts.get(counters[1], 0.0)
            value = counts.get(counters[0], 0.0) / den if den else 0.0
        else:
            value = seq[row.field]
        out[row.metric] = {"value": float(value), "unit": row.unit}
    out[TRACE_OVERHEAD] = {"value": float(overhead_ratio), "unit": "ratio"}
    return out


if __name__ == "__main__":
    print(json.dumps(per_layer(), indent=2))
