"""Command-line pipeline: preprocess, split, pretrain, finetune, predict,
evaluate (plus `verify` for manifest drift checks).

Exit codes: 0 success, 1 domain error, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt_io
from . import fusion as fusion_mod
from . import ingest, manifest, metrics, splitter, training
from .model import FreezeMask, ModelError, ProteinEncoder

ASPECT_NAMES = {"BP": "Biological Processes", "MF": "Molecular Function", "CC": "Cellular Component"}

DomainErrors = (
    ingest.IngestError,
    splitter.SplitError,
    ModelError,
    ckpt_io.CheckpointError,
    training.TrainingError,
    fusion_mod.FusionError,
    metrics.MetricsError,
    manifest.ManifestError,
)


def _say(args, *message):
    if not args.quiet:
        print(*message)


def _pool_record() -> dict:
    """Manifest fields of the pool model work runs on (ad.cpu_pool)."""
    return dict(zip(("scoring_threads", "blas_threads"), ad.pool_threads()))


# ---------------------------------------------------------------------------
# dataset directory helpers
# ---------------------------------------------------------------------------

def _write_records(records, path):
    with manifest.atomic_open(path) as fh:
        for r in records:
            anns = ";".join(f"{go}|{a.value}" for go, a in sorted(r.annotations, key=lambda x: (x[0], x[1].value)))
            fh.write(f"{r.accession}\t{r.sequence}\t{anns}\n")


def _dataset_meta(dataset_dir) -> dict:
    with open(Path(dataset_dir) / "dataset.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _vocab_path(directory, aspect) -> Path:
    return Path(directory) / f"vocab_{aspect.value}.tsv"


def _dataset_files(dataset_dir) -> list:
    """The files `preprocess` writes and `_load_dataset` reads."""
    named = [Path(dataset_dir) / n for n in ("records.tsv", "dataset.json")]
    return named + [_vocab_path(dataset_dir, a) for a in ingest.ASPECTS]


def _split_files(args) -> list:
    return [Path(args.split) / n for n in splitter.SPLIT_FILES] if getattr(args, "split", None) else []


def _load_dataset(dataset_dir):
    records = ingest.parse_tsv(Path(dataset_dir) / "records.tsv")
    meta = _dataset_meta(dataset_dir)
    vocabs = {a: ingest.read_vocabulary(_vocab_path(dataset_dir, a), a) for a in ingest.ASPECTS}
    return records, vocabs, meta


def _labelled(records, vocab, accessions=None):
    """The records among `accessions` (all when None) that carry a term of
    the vocabulary's aspect, in input order, and their label vectors."""
    rows = [r for r in records
            if (accessions is None or r.accession in accessions) and r.terms(vocab.aspect)]
    return rows, [ingest.encode_labels(r, vocab) for r in rows]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    started = time.time()
    for flag, value in (("--top-k", args.top_k), ("--max-len", args.max_len)):
        if value < 1:
            raise ingest.IngestError(f"{flag} must be >= 1, got {value}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.annotations:
        records = ingest.parse_fasta_tsv(args.input, args.annotations)
    else:
        records = ingest.parse_tsv(args.input)
    records = ingest.filter_unannotated(records)
    if not records:
        raise ingest.IngestError("no annotated records in input")
    inputs = manifest.digests([args.input] + ([args.annotations] if args.annotations else []))

    _write_records(records, out / "records.tsv")
    counts = {}
    for aspect in ingest.ASPECTS:
        vocab = ingest.build_vocabulary(records, aspect, args.top_k)
        ingest.write_vocabulary(vocab, _vocab_path(out, aspect))
        counts[aspect.value] = sum(1 for r in records if r.terms(aspect))
    meta = {"top_k": args.top_k, "max_len": args.max_len,
            "num_records": len(records), "per_aspect_records": counts}
    manifest.write_json(out / "dataset.json", meta)
    manifest.write_manifest(out, "preprocess", vars_config(args), args.seed, inputs, _dataset_files(out), started)
    _say(args, f"preprocessed {len(records)} annotated records into {out}")
    return 0


def cmd_split(args) -> int:
    started = time.time()
    out = Path(args.out)
    records = ingest.parse_tsv(Path(args.dataset) / "records.tsv")
    inputs = manifest.digests([Path(args.dataset) / "records.tsv"])
    by_accession = {r.accession: r for r in records}
    if args.kind == "random":
        split = splitter.random_split([r.accession for r in records], args.seed)
        leaked = None
    elif args.kind == "clustered":
        assignment = splitter.cluster_sequences(records, args.identity_threshold, args.kmer)
        split = splitter.clustered_split(assignment, (0.8, 0.1, 0.1), seed=args.seed,
                                         identity_threshold=args.identity_threshold)
        leaked = splitter.audit_leakage(split, assignment)
    else:
        raise splitter.SplitError(f"unknown split kind '{args.kind}'")
    aspect_counts = splitter.per_aspect_counts(split, by_accession)
    splitter.write_split(split, out, aspect_counts)
    outputs = [out / n for n in splitter.SPLIT_FILES]
    extra = {"per_aspect_counts": aspect_counts}
    if leaked is not None:
        extra["leaking_clusters"] = len(leaked)
    manifest.write_manifest(out, "split", vars_config(args), args.seed, inputs, outputs, started, extra)
    _say(args, f"{args.kind} split: train={len(split.train)} dev={len(split.dev)} test={len(split.test)}")
    return 0


def _json_config(path, kind, **derived):
    """The `kind` config from the JSON file at `path` (none: defaults) and `derived`."""
    data = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise training.TrainingError(f"{path} is not a JSON file: {exc}") from None
    return training.config_from_json(data, kind, **derived)


def _aspects_of(args):
    if args.aspect == "all":
        return list(ingest.ASPECTS)
    return [ingest.GoAspect.parse(args.aspect)]


def _derive_seed(master: int, aspect) -> int:
    order = {a: i for i, a in enumerate(ingest.ASPECTS)}
    return int(np.random.SeedSequence([master, order[aspect]]).generate_state(1)[0])


def _loss_rows_upto(path, step) -> str:
    """The rows of a loss CSV up to optimizer step `step`. A run killed
    mid-epoch logged steps beyond its last checkpoint, which resuming replays."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.readlines()[1:]
    steps = [r.split(",", 1)[0] for r in rows]
    return "".join(r for r, s in zip(rows, steps) if r.endswith("\n") and s.isdigit() and int(s) <= step)


def _train_one_aspect(args, mode, aspect, records, vocabs, meta, out):
    max_len = meta["max_len"]
    cfg = _json_config(args.config, mode, seed=_derive_seed(args.seed, aspect))
    model_cfg = _json_config(args.model_config, "model", vocab_size=ingest.VOCAB_SIZE,
                             max_len=max_len, num_labels=len(vocabs[aspect]))

    source = args.resume or getattr(args, "init", None)
    if source:
        path = _aspect_path(source, aspect)
        loaded = ckpt_io.load_checkpoint(path)
        if args.model_config and model_cfg != loaded.config:
            field = next(f for f in model_cfg.to_dict() if getattr(model_cfg, f) != getattr(loaded.config, f))
            raise training.TrainingError(f"model config {field} {getattr(model_cfg, field)} differs from "
                                         f"{getattr(loaded.config, field)} in checkpoint {path}")
        model = loaded.to_model()
    else:
        model = ProteinEncoder(model_cfg, seed=cfg.seed)

    wanted = _split_side(args, "train")
    freeze_kind = getattr(args, "freeze", "none")  # pretraining freezes nothing
    freeze = (FreezeMask.default_finetune if freeze_kind == "default" else FreezeMask.none)(model.config)
    if mode == "finetune":
        fusion_mod.check_labels(model, vocabs[aspect])
        rows, labels = _labelled(records, vocabs[aspect], wanted)
        data = [(ingest.tokenize(r.sequence, max_len), y) for r, y in zip(rows, labels)]
    else:
        data = [ingest.tokenize(r.sequence, max_len) for r in records
                if wanted is None or r.accession in wanted]

    ckpt_path = out / f"model_{aspect.value}.ckpt"
    loss_path = out / f"loss_{aspect.value}.csv"
    start_epoch, adam_state, kept = 0, None, ""
    if args.resume:
        # resuming continues the run exactly, so it takes no other seed or freeze mask
        if loaded.rng_state.get("seed") != cfg.seed:
            raise training.TrainingError(f"--seed {args.seed} is not the seed checkpoint {path} was trained with")
        if loaded.freeze_mask != freeze:
            raise training.TrainingError(f"freeze mask '{freeze_kind}' is not that of checkpoint {path}")
        start_epoch, adam_state = training.resume_state(loaded, model)
        if loss_path.exists():
            kept = _loss_rows_upto(loss_path, adam_state.step)
    # the header and any kept rows are in place before steps are appended
    with manifest.atomic_open(loss_path) as log:
        log.write("step,epoch,aspect,loss\n" + kept)
    with open(loss_path, "a", encoding="utf-8") as log:
        final_ckpt, records_out = training.train_loop(
            model, data, cfg, mode, freeze_mask=freeze,
            checkpoint_path=ckpt_path, loss_log=log, aspect=aspect.value,
            start_epoch=start_epoch, adam_state=adam_state,
        )
    ckpt_io.save_checkpoint(final_ckpt, ckpt_path)
    return ckpt_path, loss_path, records_out


def _split_side(args, side):
    if getattr(args, "split", None):
        return set(getattr(splitter.read_split(args.split), side))
    return None


def _aspect_path(template: str, aspect) -> str:
    """Checkpoint path option: a literal path or one with an {aspect} slot."""
    return template.format(aspect=aspect.value)


def _cmd_train(args, mode) -> int:
    started = time.time()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records, vocabs, meta = _load_dataset(args.dataset)
    source = args.resume or getattr(args, "init", None)
    aspects = _aspects_of(args)
    read = [p for p in (args.config, args.model_config) if p] + [_aspect_path(source, a) for a in aspects if source]
    inputs = manifest.digests(_dataset_files(args.dataset) + _split_files(args) + read)
    outputs = []
    for aspect in aspects:
        ckpt_path, loss_path, loss_records = _train_one_aspect(args, mode, aspect, records, vocabs, meta, out)
        outputs += [ckpt_path, loss_path]
        if loss_records:
            _say(args, f"{aspect.value}: {len(loss_records)} optimizer steps, "
                       f"final loss {loss_records[-1].loss:.6f}")
    manifest.write_manifest(out, mode, vars_config(args), args.seed, inputs, outputs, started,
                            {**_pool_record(), "token_budget": training.TOKEN_BUDGET})
    return 0


def cmd_pretrain(args) -> int:
    return _cmd_train(args, "pretrain")


def cmd_finetune(args) -> int:
    return _cmd_train(args, "finetune")


def _load_fusion(paths, vocab_dir, threshold) -> fusion_mod.FusionModel:
    """The FusionModel of one checkpoint path per aspect, in ingest.ASPECTS order."""
    models, vocabs = {}, {}
    for aspect, path in zip(ingest.ASPECTS, paths):
        if not path:
            raise fusion_mod.FusionError(f"missing checkpoint for aspect {aspect.value}")
        models[aspect] = ckpt_io.load_checkpoint(path).to_model()
        vocabs[aspect] = ingest.read_vocabulary(_vocab_path(vocab_dir, aspect), aspect)
    return fusion_mod.FusionModel(models, vocabs, threshold)


def cmd_predict(args) -> int:
    started = time.time()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fusion = _load_fusion([args.bp, args.mf, args.cc], args.vocab_dir, args.threshold)
    pred_path = out / "predictions.tsv"

    def diag(message):
        print(f"predict: {message}", file=sys.stderr)

    inputs = manifest.digests([args.input, args.bp, args.mf, args.cc]
                              + [_vocab_path(args.vocab_dir, a) for a in ingest.ASPECTS])
    n = fusion_mod.predict_batch(args.input, fusion, pred_path, diagnostics=diag)
    manifest.write_manifest(out, "predict", vars_config(args), args.seed, inputs, [pred_path], started,
                            _pool_record())
    _say(args, f"predicted {n} records -> {pred_path}")
    return 0


def _read_predictions(path) -> dict:
    """aspect code -> [(accession, go_id, score)] from a predictions TSV;
    blank lines and the placeholder lines of empty prediction sets are skipped."""
    by_aspect = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cols = line.rstrip("\n").split("\t")
            if len(cols) != 4:
                raise metrics.MetricsError(f"line {line_no} of {path} has {len(cols)} columns, not 4")
            if cols[1] == "-":
                continue
            accession, go_id, aspect, score = cols
            try:
                value = float(score)
            except ValueError:
                value = float("nan")
            if not 0.0 <= value <= 1.0:  # nan and inf fail too
                raise metrics.MetricsError(f"score '{score}' at line {line_no} of {path} is not a number in [0, 1]")
            by_aspect.setdefault(aspect, []).append((accession, go_id, value))
    return by_aspect


def _scores_from_predictions(lines, rows, vocab):
    index = vocab.index()
    row_of = {r.accession: i for i, r in enumerate(rows)}
    scores = np.zeros((len(rows), len(index)))
    for accession, go_id, score in lines:
        if accession in row_of and go_id in index:
            scores[row_of[accession], index[go_id]] = score
    return scores


def cmd_evaluate(args) -> int:
    started = time.time()
    thresholds = [fusion_mod.check_threshold(t) for t in args.threshold]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records, vocabs, _ = _load_dataset(args.dataset)
    test_accessions = _split_side(args, "test")
    if test_accessions is None:
        test_accessions = {r.accession for r in records}
    if not test_accessions:
        raise metrics.MetricsError("empty test split")
    if not args.model and not args.predictions:
        raise metrics.MetricsError("evaluate needs --model or --predictions")
    sources = [args.predictions] if args.predictions else [_aspect_path(args.model, a) for a in ingest.ASPECTS]
    inputs = manifest.digests(_dataset_files(args.dataset) + _split_files(args) + sources)

    predictions = _read_predictions(args.predictions) if args.predictions else None
    tested = {a: _labelled(records, vocabs[a], test_accessions) for a in ingest.ASPECTS}
    if empty := [a.value for a, (rows, _) in tested.items() if not rows]:
        raise metrics.MetricsError(f"empty test set for aspect {empty[0]}")
    if predictions is None:
        # every test record is scored as `predict` scores it: one query per pool worker
        fusion = _load_fusion(sources, args.dataset, thresholds[0])
        test_records = [r for r in records if r.accession in test_accessions]
        with ad.cpu_pool() as pool:
            predicted = pool.map(lambda r: fusion.predict(r.sequence, r.accession), test_records)
            scored = {p.accession: p.scores for p in predicted}
    outputs = []
    reports = {}
    for aspect, (rows, labels) in tested.items():
        targets = np.stack(labels)
        if predictions is not None:
            scores = _scores_from_predictions(predictions.get(aspect.value, []), rows, vocabs[aspect])
        else:
            scores = np.stack([scored[r.accession][aspect] for r in rows])
        try:
            curve = metrics.micro_roc(scores, targets)
        except metrics.MetricsError:
            auc = None
        else:
            auc = curve.auc
            metrics.write_roc_csv(curve, out / f"roc_{aspect.value}.csv")
            outputs.append(out / f"roc_{aspect.value}.csv")
        lengths = [len(r.sequence) for r in rows]
        slas = [metrics.length_analysis(lengths, scores, targets, t) for t in thresholds]
        for t, sla in zip(thresholds, slas):
            report = metrics.aspect_report(scores, targets, t, auc, sla)
            reports.setdefault(_threshold_key(t), {})[aspect.value] = report
        metrics.write_sla_csv(slas[0], out / f"sla_{aspect.value}.csv")
        outputs.append(out / f"sla_{aspect.value}.csv")

    for key, per_aspect in reports.items():
        name = "report.json" if len(thresholds) == 1 else f"report_{key}.json"
        metrics.write_report_json(per_aspect, out / name)
        outputs.append(out / name)

    if not args.quiet:
        _print_table(reports[_threshold_key(thresholds[0])])
    manifest.write_manifest(out, "evaluate", vars_config(args), args.seed, inputs, outputs, started,
                            _pool_record() if args.model else None)
    return 0


def _threshold_key(t: float) -> str:
    return f"{t:g}"


def _print_table(per_aspect: dict) -> None:
    print(f"{'Aspect':<22} {'Accuracy':>9} {'F1 score':>9} {'Precision':>10} {'Recall':>8}")
    for code in ("BP", "MF", "CC"):
        r = per_aspect[code]
        print(f"{ASPECT_NAMES[code]:<22} {r['subset_accuracy'] * 100:>8.2f}% "
              f"{r['f1']:>9.4f} {r['precision']:>10.4f} {r['recall']:>8.4f}")


def cmd_verify(args) -> int:
    problems = manifest.verify_manifest(args.manifest)
    if problems:
        for p in problems:
            print(f"verify: {p}", file=sys.stderr)
        return 1
    _say(args, "manifest inputs and outputs verified")
    return 0


def vars_config(args) -> dict:
    skip = {"func", "quiet"}
    return {k: (str(v) if isinstance(v, Path) else v) for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="protgo",
                                     description="GO-term annotation pipeline for protein sequences")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--quiet", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", parents=[common], help="parse, filter, build vocabularies, encode")
    p.add_argument("input", help="records TSV, or FASTA when --annotations is given")
    p.add_argument("--annotations", default=None, help="companion annotation TSV for FASTA input")
    p.add_argument("--top-k", type=int, default=100, dest="top_k")
    p.add_argument("--max-len", type=int, default=1000, dest="max_len")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("split", parents=[common], help="8:1:1 split, at random or by whole clusters")
    p.add_argument("--dataset", required=True)
    p.add_argument("--kind", choices=("random", "clustered"), required=True)
    p.add_argument("--identity-threshold", type=float, default=0.5, dest="identity_threshold")
    p.add_argument("--kmer", type=int, default=5)
    p.set_defaults(func=cmd_split)

    for name, func in (("pretrain", cmd_pretrain), ("finetune", cmd_finetune)):
        p = sub.add_parser(name, parents=[common], help=f"{name} aspect models")
        p.add_argument("--dataset", required=True)
        p.add_argument("--config", default=None, help="JSON training config")
        p.add_argument("--split", default=None, help="split directory; restricts to its train side")
        p.add_argument("--aspect", choices=("BP", "MF", "CC", "all"), default="all")
        p.add_argument("--model-config", default=None, dest="model_config")
        start = p.add_mutually_exclusive_group()
        start.add_argument("--resume", default=None,
                           help="checkpoint to resume (may contain an {aspect} slot)")
        if name == "finetune":
            start.add_argument("--init", default=None,
                               help="pretrained checkpoint to start from (fresh optimizer)")
            p.add_argument("--freeze", choices=("default", "none"), default="default")
        p.set_defaults(func=func)

    p = sub.add_parser("predict", parents=[common], help="fused three-aspect prediction")
    p.add_argument("input", help="TSV with accession and sequence columns")
    p.add_argument("--bp", required=True, help="BP checkpoint")
    p.add_argument("--mf", required=True, help="MF checkpoint")
    p.add_argument("--cc", required=True, help="CC checkpoint")
    p.add_argument("--vocab-dir", required=True, dest="vocab_dir")
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[common], help="metrics, ROC and length analysis")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default=None, help="split directory; evaluates its test side")
    p.add_argument("--model", default=None,
                   help="checkpoint path with an {aspect} slot, e.g. run/model_{aspect}.ckpt")
    p.add_argument("--predictions", default=None, help="prediction TSV to evaluate instead of models")
    p.add_argument("--threshold", type=float, nargs="+", default=[0.5])
    p.add_argument("--batch-size", type=int, default=16, dest="batch_size",
                   help="ignored: each test record is scored on its own, as predict scores it")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify", parents=[common], help="re-hash a manifest's inputs and outputs")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainErrors as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
