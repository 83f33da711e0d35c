"""Benchmark workloads: seeded inputs, the CLI stages each one times, and the
checks on their outputs.

The seed changes residues, labels, accessions' order and the malformed line's
position. It never changes the multiset of sequence lengths or the batch
shapes, so throughput repeats across seeds.
"""

from __future__ import annotations

import json
import math
import numpy as np

RESIDUES = np.array(list("ACDEFGHIKLMNPQRSTVWY"))
ASPECTS = ("BP", "MF", "CC")
TERMS_PER_ASPECT = 12
TRAIN_CONFIG = {"epochs": 1, "batch_size": 8}

# annotate: realistic, mixed lengths. Evaluate runs in batches of 4 over these
# fixed groups, so the padded batch shapes (1002, 652 and 472 tokens) do not
# depend on the seed; the seed only shuffles within and across groups.
ANNOTATE_GROUPS = ((1000, 50, 160, 310), (650, 70, 200, 380), (470, 95, 125, 250))
ANNOTATE_BATCH = 4
# short records that the three set-up checkpoints are fine-tuned on
CHECKPOINT_LENGTHS = tuple(range(50, 90, 2))
# train: the 250-500 residue shape at batch 8, one micro-batch per stage
TRAIN_LENGTHS = tuple(int(x) for x in np.linspace(250, 500, 8))
# corpus: 40 families of 5; founders 400..205 residues, members one residue
# shorter each and 4% substituted, so clusters are exactly the families
FAMILIES, FAMILY_SIZE, FAMILY_STEP, MUTATION_RATE = 40, 5, 5, 0.04
EVAL_RECORDS = 2000
THRESHOLDS = (0.3, 0.5, 0.7)


def _seq(rng, length):
    return "".join(rng.choice(RESIDUES, size=length))


def _term_pool(rng):
    ids = rng.choice(np.arange(1, 10_000_000), size=3 * TERMS_PER_ASPECT, replace=False)
    ids = [f"GO:{int(i):07d}" for i in ids]
    return {a: ids[k * TERMS_PER_ASPECT:(k + 1) * TERMS_PER_ASPECT] for k, a in enumerate(ASPECTS)}


def _labels(rng, pool, i):
    """Per aspect a non-empty term set. Terms i and i + K/2 (mod K) are always
    present, so every term of the pool appears in any K/2 consecutive records
    and preprocess can build its top-K vocabulary."""
    out = {}
    for a in ASPECTS:
        keep = rng.random(TERMS_PER_ASPECT) < 0.25
        keep[i % TERMS_PER_ASPECT] = True
        keep[(i + TERMS_PER_ASPECT // 2) % TERMS_PER_ASPECT] = True
        out[a] = [t for t, k in zip(pool[a], keep) if k]
    return out


def _write_records(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for accession, seq, labels in rows:
            anns = ";".join(f"{t}|{a}" for a in ASPECTS for t in labels[a])
            fh.write(f"{accession}\t{seq}\t{anns}\n")


def _labelled(rng, pool, lengths, prefix, start=0):
    return [(f"{prefix}{i:05d}", _seq(rng, n), _labels(rng, pool, i))
            for i, n in enumerate(lengths, start=start)]


def _tokens(lengths, max_len=1000):
    return sum(min(n, max_len) + 2 for n in lengths)


def _shuffled(rng, rows):
    return [rows[i] for i in rng.permutation(len(rows))]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = ""
    # stages whose throughput is items_per_s: their items over their time, summed
    headline_stages = ()
    # (metric, stage, unit): per-stage throughputs reported beside the result
    stage_metrics = ()
    # binding sites the traced cycles must hit
    expected_sites = ()
    # nominal seconds of one cycle, with its reference-kernel sample, on a
    # 2-vCPU host: --seconds / cycle_s cycles are timed, whatever their
    # actual speed
    cycle_s = 1.0
    # untraced runs set up this many times; setup_s is their median
    setup_repeats = 5
    # the reference.py kernel whose speed untraced times are scaled to: the
    # one that does the same kind of work as the timed stages
    reference = "numpy"

    def __init__(self, seed):
        self.seed = seed

    def rng(self):
        return np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def shapes(self):
        """(mode, batch, padded tokens) of every model batch the workload runs."""
        return []

    def cli(self, *argv):
        return [*argv, "--seed", str(self.seed), "--quiet"]

    @staticmethod
    def write_config(work):
        path = work / "train_config.json"
        path.write_text(json.dumps(TRAIN_CONFIG))
        return path

    def preprocess(self, run, tsv, out):
        return run.stage("preprocess", self.cli("preprocess", str(tsv), "--top-k",
                                                str(TERMS_PER_ASPECT), "--out", str(out)))[0]


class Annotate(Workload):
    """predict over mixed-length queries, then evaluate with the models."""

    name = "annotate"
    headline_stages = ("predict",)
    stage_metrics = (("predict_seqs_per_s", "predict", "seqs/s"), ("evaluate_records_per_s", "evaluate", "records/s"))
    expected_sites = (
        "cli.cmd_predict", "cli.cmd_evaluate", "fusion.predict_batch", "fusion.FusionModel.predict",
        "fusion.sigmoid", "fusion.tokenize", "fusion.pad_batch", "model.pad_batch",
        "model.ProteinEncoder.__init__", "model.ProteinEncoder.embed",
        "model.ProteinEncoder.encoder_layer", "model.ProteinEncoder.forward_classify",
        "checkpoint.load_checkpoint", "ingest.parse_tsv", "ingest.tokenize", "ingest.read_vocabulary",
        "autodiff.sigmoid", "autodiff.matmul", "autodiff.add", "autodiff.scale", "autodiff.softmax",
        "autodiff.gelu", "autodiff.layer_norm", "autodiff.add_constant", "autodiff.transpose",
        "autodiff.reshape", "autodiff.embedding_lookup", "metrics.micro_roc", "manifest.write_manifest",
    )
    cycle_s = 7.0

    def shapes(self):
        longest = max(max(g) for g in ANNOTATE_GROUPS) + 2
        return [("infer", ANNOTATE_BATCH, max(g) + 2) for g in ANNOTATE_GROUPS] + [("infer", 1, longest)]

    def setup(self, run, work):
        rng = self.rng()
        work.mkdir(parents=True)
        pool = _term_pool(rng)
        lengths = [n for g in ANNOTATE_GROUPS for n in g]

        _write_records(work / "train.tsv", _shuffled(rng, _labelled(rng, pool, CHECKPOINT_LENGTHS, "T")))
        groups, start = [], 0
        for g in ANNOTATE_GROUPS:
            groups.append(_shuffled(rng, _labelled(rng, pool, g, "E", start)))
            start += len(g)
        _write_records(work / "eval.tsv", [row for i in rng.permutation(len(groups)) for row in groups[i]])

        queries = [(f"Q{i:05d}", _seq(rng, n)) for i, n in enumerate(lengths)]
        queries = _shuffled(rng, queries)
        bad_at = int(rng.integers(len(queries) + 1))
        lines = [f"{a}\t{s}\n" for a, s in queries]
        bad_seq = _seq(rng, 120)
        lines.insert(bad_at, f"QBAD{bad_at:04d}\t{bad_seq[:60]}J{bad_seq[60:]}\n")  # J is no residue
        with open(work / "queries.tsv", "w", encoding="utf-8") as fh:
            fh.writelines(lines)

        ok = all([
            self.preprocess(run, work / "train.tsv", work / "ds"),
            run.stage("split", self.cli("split", "--dataset", str(work / "ds"), "--kind", "random",
                                        "--out", str(work / "split")))[0],
            run.stage("finetune", self.cli("finetune", "--dataset", str(work / "ds"), "--split",
                                           str(work / "split"), "--aspect", "all", "--config",
                                           str(self.write_config(work)), "--out", str(work / "ckpt")))[0],
            self.preprocess(run, work / "eval.tsv", work / "eval"),
        ])
        return {"ok": ok, "work": work, "valid": {a for a, _ in queries}, "bad_lines": {bad_at + 1},
                "eval_records": len(lengths), "reference": None}

    def cycle(self, run, state):
        work = state["work"]
        ckpt = work / "ckpt" / "model_{aspect}.ckpt"
        pred_dir = work / "pred"
        ok, seconds, stderr = run.stage("predict", self.cli(
            "predict", str(work / "queries.tsv"), *(x for a in ASPECTS for x in (f"--{a.lower()}", str(ckpt).format(aspect=a))),
            "--vocab-dir", str(work / "ds"), "--out", str(pred_dir)))
        out = {}
        if ok and run.check("predict.outputs", lambda: self._check_predict(state, pred_dir / "predictions.tsv", stderr)):
            out["predict"] = (seconds, len(state["valid"]))
        ok, seconds, _ = run.stage("evaluate", self.cli(
            "evaluate", "--dataset", str(work / "eval"), "--model", str(ckpt), "--batch-size",
            str(ANNOTATE_BATCH), "--out", str(work / "evaluation")))
        if ok:
            run.check("evaluate.confusion_totals",
                      lambda: self._check_totals(work / "evaluation" / "report.json", state["eval_records"]))
            out["evaluate"] = (seconds, state["eval_records"])
        return out

    @staticmethod
    def _check_predict(state, path, stderr):
        """Every valid query written, exactly the malformed lines skipped, and
        the output byte-identical to the first cycle's (same inputs, same seed)."""
        data = path.read_bytes()
        written = {line.split("\t")[0] for line in data.decode("utf-8").splitlines() if line}
        skipped = {int(line.split("line ")[1].split(":")[0]) for line in stderr.splitlines()
                   if line.startswith("predict: line ")}
        if state["reference"] is None:
            state["reference"] = data
        return written == state["valid"] and skipped == state["bad_lines"] and data == state["reference"]

    @staticmethod
    def _check_totals(path, n):
        report = _read_json(path)
        return all(sum(report[a]["confusion"].values()) == n * TERMS_PER_ASPECT for a in ASPECTS)


class Train(Workload):
    """pretrain then finetune --freeze default, one aspect, default model."""

    name = "train"
    headline_stages = ("pretrain", "finetune")
    stage_metrics = (("pretrain_tokens_per_s", "pretrain", "tokens/s"),
                     ("finetune_tokens_per_s", "finetune", "tokens/s"))
    expected_sites = (
        "cli.cmd_pretrain", "cli.cmd_finetune", "training.train_loop", "training.adam_step",
        "training.mask_tokens", "training.mlm_loss", "training.finetune_loss", "training.pad_batch",
        "training.save_checkpoint", "training.checkpoint_from_model", "checkpoint.save_checkpoint",
        "checkpoint.load_checkpoint", "model.ProteinEncoder.forward_mlm",
        "model.ProteinEncoder.forward_classify", "model.ProteinEncoder.encoder_layer",
        "autodiff.Tensor.backward", "autodiff.dropout", "autodiff.matmul", "autodiff.softmax",
        "autodiff.gelu", "autodiff.layer_norm", "autodiff.add_constant", "autodiff.embedding_lookup",
        "ingest.tokenize", "manifest.write_manifest",
    )
    cycle_s = 4.0
    setup_repeats = 30  # one set-up is a single preprocess of about 0.03 s

    def shapes(self):
        return [("train", TRAIN_CONFIG["batch_size"], max(TRAIN_LENGTHS) + 2)]

    def setup(self, run, work):
        rng = self.rng()
        work.mkdir(parents=True)
        _write_records(work / "train.tsv", _shuffled(rng, _labelled(rng, _term_pool(rng), TRAIN_LENGTHS, "P")))
        ok = self.preprocess(run, work / "train.tsv", work / "ds")
        return {"ok": ok, "work": work, "config": self.write_config(work),
                "tokens": _tokens(TRAIN_LENGTHS) * TRAIN_CONFIG["epochs"]}

    def cycle(self, run, state):
        work = state["work"]
        common = ("--dataset", str(work / "ds"), "--aspect", "BP", "--config", str(state["config"]))
        out = {}
        ok, seconds, _ = run.stage("pretrain", self.cli("pretrain", *common, "--out", str(work / "pre")))
        if ok:
            # the zero-initialised MLM head makes the first step's logits exactly uniform
            run.check("pretrain.uniform_start",
                      lambda: abs(self._losses(work / "pre" / "loss_BP.csv")[0] - math.log(30)) <= 1e-9)
            out["pretrain"] = (seconds, state["tokens"])
        ok, seconds, _ = run.stage("finetune", self.cli(
            "finetune", *common, "--init", str(work / "pre" / "model_{aspect}.ckpt"),
            "--freeze", "default", "--out", str(work / "run")))
        if ok:
            run.check("finetune.finite_loss",
                      lambda: all(map(math.isfinite, self._losses(work / "run" / "loss_BP.csv") or [math.nan])))
            out["finetune"] = (seconds, state["tokens"])
        return out

    @staticmethod
    def _losses(path):
        with open(path, "r", encoding="utf-8") as fh:
            next(fh)
            return [float(line.rstrip("\n").split(",")[3]) for line in fh if line.strip()]


class Corpus(Workload):
    """clustered split of mutated families, then evaluate --predictions."""

    name = "corpus"
    headline_stages = ("split",)
    stage_metrics = (("split_records_per_s", "split", "records/s"), ("evaluate_records_per_s", "evaluate", "records/s"))
    expected_sites = (
        "cli.cmd_split", "cli.cmd_evaluate", "splitter.cluster_sequences", "splitter.kmer_similarity",
        "splitter.clustered_split", "splitter.audit_leakage", "splitter.write_split",
        "ingest.parse_tsv", "ingest.read_vocabulary", "metrics.micro_roc", "manifest.write_manifest",
    )
    cycle_s = 1.1
    reference = "interpreter"  # the split is pure Python

    def setup(self, run, work):
        rng = self.rng()
        work.mkdir(parents=True)
        pool = _term_pool(rng)
        rows = []
        for f in range(FAMILIES):
            base = rng.choice(RESIDUES, size=400 - FAMILY_STEP * f)
            for j in range(FAMILY_SIZE):
                member = base[:len(base) - j].copy()
                if j:
                    hit = rng.random(len(member)) < MUTATION_RATE
                    member[hit] = rng.choice(RESIDUES, size=int(hit.sum()))
                i = f * FAMILY_SIZE + j
                rows.append((f"F{i:05d}", "".join(member), _labels(rng, pool, i)))
        _write_records(work / "families.tsv", _shuffled(rng, rows))

        lengths = [50 + (i * 37) % 400 for i in range(EVAL_RECORDS)]
        eval_rows = _shuffled(rng, _labelled(rng, pool, lengths, "R"))
        _write_records(work / "eval.tsv", eval_rows)
        truth = {}
        with open(work / "scores.tsv", "w", encoding="utf-8") as fh:
            for accession, _, labels in eval_rows:
                for a in ASPECTS:
                    y = np.isin(pool[a], labels[a])
                    logits = 1.5 * (2.0 * y - 1.0) + rng.normal(size=len(y))
                    text = [f"{1.0 / (1.0 + math.exp(-z)):.6f}" for z in logits]
                    fh.writelines(f"{accession}\t{t}\t{a}\t{s}\n" for t, s in zip(pool[a], text))
                    truth.setdefault(a, []).append((np.array([float(s) for s in text]), y))
        ok = self.preprocess(run, work / "families.tsv", work / "ds") and \
            self.preprocess(run, work / "eval.tsv", work / "eval")
        return {"ok": ok, "work": work, "records": len(rows), "eval_records": len(eval_rows),
                "truth": {a: (np.stack([s for s, _ in v]), np.stack([y for _, y in v])) for a, v in truth.items()}}

    def cycle(self, run, state):
        work = state["work"]
        out = {}
        ok, seconds, _ = run.stage("split", self.cli("split", "--dataset", str(work / "ds"), "--kind", "clustered",
                                                  "--out", str(work / "split")))
        if ok:
            run.check("split.no_leakage", lambda: self._check_split(work / "split", state["records"]))
            out["split"] = (seconds, state["records"])
        ok, seconds, _ = run.stage("evaluate", self.cli(
            "evaluate", "--dataset", str(work / "eval"), "--predictions", str(work / "scores.tsv"),
            "--threshold", *map(str, THRESHOLDS), "--out", str(work / "evaluation")))
        if ok:
            run.check("evaluate.recount", lambda: self._recount_matches(work / "evaluation", state["truth"]))
            out["evaluate"] = (seconds, state["eval_records"])
        return out

    @staticmethod
    def _check_split(out_dir, records):
        sides = _read_json(out_dir / "split.json")["counts"]
        leaking = _read_json(out_dir / "manifest.json").get("leaking_clusters")
        return leaking == 0 and sum(sides.values()) == records

    @staticmethod
    def _recount_matches(out_dir, truth):
        """report_<t>.json confusion counts equal a recount from the scores
        as written (six decimals) and the generated labels."""
        for t in THRESHOLDS:
            report = _read_json(out_dir / f"report_{t:g}.json")
            for a, (scores, y) in truth.items():
                hit = scores >= t
                want = {"tp": int(np.sum(hit & y)), "fp": int(np.sum(hit & ~y)),
                        "fn": int(np.sum(~hit & y)), "tn": int(np.sum(~hit & ~y))}
                if report[a]["confusion"] != want:
                    return False
        return True


WORKLOADS = {w.name: w for w in (Annotate, Train, Corpus)}
