import ctypes
import hashlib
import json
import math
import os
import signal
import stat
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import protgo
from protgo import autodiff as ad
from protgo import cli, training
from protgo.checkpoint import load_checkpoint
from protgo.cli import main
from protgo.fusion import FusionModel
from protgo.ingest import ASPECTS, parse_tsv, read_vocabulary
from protgo.model import ProteinEncoder
from conftest import random_corpus, write_corpus_tsv
from oracles import write_labels

MODEL_JSON = {"num_layers": 1, "d_model": 16, "num_heads": 2, "d_ff": 32, "dropout": 0.0}
FT_JSON = {"epochs": 1, "batch_size": 8, "grad_accumulation": 1, "learning_rate": 1e-3}


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def corpus(tmp_path):
    recs = random_corpus(40, seed=7, go_pool=9)
    path = tmp_path / "corpus.tsv"
    write_corpus_tsv(recs, path)
    return path


@pytest.fixture
def dataset(tmp_path, corpus):
    out = tmp_path / "ds"
    assert main(["preprocess", str(corpus), "--top-k", "3", "--max-len", "50",
                 "--out", str(out), "--quiet"]) == 0
    return out


# (scoring_threads, blas_threads) a model command records: one worker per
# usable CPU with BLAS at one thread, or one worker where BLAS cannot be set
POOL_RECORDS = ((len(os.sched_getaffinity(0)), 1), (1, None))


def _pool_record(out):
    recorded = json.loads((out / "manifest.json").read_text())
    return recorded.get("scoring_threads"), recorded.get("blas_threads")


def _finetune(tmp_path, dataset, out_name="run", extra=()):
    model_cfg = _write(tmp_path / "model.json", MODEL_JSON)
    ft_cfg = _write(tmp_path / "ft.json", FT_JSON)
    out = tmp_path / out_name
    rc = main(["finetune", "--dataset", str(dataset), "--config", ft_cfg,
               "--model-config", model_cfg, "--out", str(out), "--quiet", *extra])
    assert rc == 0
    return out


def _flatten_a_first_moment(header):
    entry = next(e for e in header["arrays"] if e["name"].startswith("adam.m.") and len(e["shape"]) == 2)
    entry["shape"] = [math.prod(entry["shape"])]  # the same bytes, in another shape than its parameter's


def _flip_a_bit_of_a_second_moment_name(header):
    entry = next(e for e in header["arrays"] if e["name"].startswith("adam.v."))
    entry["name"] = entry["name"][:-1] + chr(ord(entry["name"][-1]) ^ 1)


class TestPreprocess:
    def test_outputs_and_vocab_length(self, dataset):
        for aspect in ("BP", "MF", "CC"):
            vocab = (dataset / f"vocab_{aspect}.tsv").read_text().splitlines()
            assert len(vocab) == 3
            # label vectors are derived from records.tsv and the vocabulary
            assert not (dataset / f"labels_{aspect}.tsv").exists()
        assert (dataset / "records.tsv").exists()
        assert (dataset / "manifest.json").exists()

    def test_no_annotated_records(self, tmp_path):
        src = tmp_path / "empty.tsv"
        src.write_text("P1\tMKV\t\n")
        assert main(["preprocess", str(src), "--out", str(tmp_path / "d"), "--quiet"]) == 1

    def test_a_refused_top_k_leaves_no_file(self, tmp_path, corpus, capsys):
        """Every vocabulary is built before anything is written: the corpus has
        3 terms per aspect, so --top-k 4 is refused."""
        out = tmp_path / "ds"
        out.mkdir()
        capsys.readouterr()
        assert main(["preprocess", str(corpus), "--top-k", "4", "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "top-4 vocabulary" in err[0]
        assert list(out.iterdir()) == []

    def test_ingest_error_exit_code(self, tmp_path):
        src = tmp_path / "bad.tsv"
        src.write_text("P1\tMK9\tGO:0000001|BP\n")
        assert main(["preprocess", str(src), "--out", str(tmp_path / "d"), "--quiet"]) == 1


class TestSplit:
    def test_random_deterministic_bytes(self, tmp_path, dataset):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["split", "--dataset", str(dataset), "--kind", "random",
                         "--seed", "7", "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        for f in ("train.ids", "dev.ids", "test.ids", "split.json"):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

    def test_clustered_records_leakage_zero(self, tmp_path, dataset):
        out = tmp_path / "sc"
        assert main(["split", "--dataset", str(dataset), "--kind", "clustered",
                     "--seed", "1", "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["leaking_clusters"] == 0

    def test_clustered_sides_are_8_1_1(self, tmp_path, dataset):
        # the 40 fixture records share no 5-mers, so every cluster is a singleton
        out = tmp_path / "sc"
        assert main(["split", "--dataset", str(dataset), "--kind", "clustered",
                     "--seed", "1", "--out", str(out), "--quiet"]) == 0
        counts = json.loads((out / "split.json").read_text())["counts"]
        assert (counts["train"], counts["dev"], counts["test"]) == (32, 4, 4)

    def test_unknown_kind_usage_error(self, tmp_path, dataset):
        with pytest.raises(SystemExit) as exc:
            main(["split", "--dataset", str(dataset), "--kind", "bogus", "--quiet"])
        assert exc.value.code == 2

    def test_missing_dataset_io_error(self, tmp_path):
        assert main(["split", "--dataset", str(tmp_path / "nope"), "--kind", "random",
                     "--out", str(tmp_path / "s"), "--quiet"]) == 2


class TestTrainCommands:
    def test_single_aspect_scoping(self, tmp_path, dataset):
        out = _finetune(tmp_path, dataset, extra=["--aspect", "MF"])
        assert (out / "model_MF.ckpt").exists()
        assert not (out / "model_BP.ckpt").exists()

    def test_invalid_config_field_value(self, tmp_path, dataset):
        cfg = _write(tmp_path / "bad.json", {"epochs": 1, "batch_size": 4, "mask_probability": 1.5})
        rc = main(["pretrain", "--dataset", str(dataset), "--config", cfg,
                   "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1

    def test_unknown_config_field(self, tmp_path, dataset):
        cfg = _write(tmp_path / "bad.json", {"epochs": 1, "batch_size": 4, "nope": 1})
        rc = main(["finetune", "--dataset", str(dataset), "--config", cfg,
                   "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1

    @pytest.mark.parametrize("field, value", [
        ("loss_kind", "categorical"), ("lr_schedule", "linear"), ("threshold", 0.5), ("seed", 3),
    ])
    def test_removed_config_fields_rejected(self, tmp_path, dataset, field, value):
        cfg = _write(tmp_path / "old.json", {**FT_JSON, field: value})
        rc = main(["finetune", "--dataset", str(dataset), "--config", cfg,
                   "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1

    @pytest.mark.parametrize("field, value", [("vocab_size", 30), ("max_len", 50), ("num_labels", 3)])
    def test_derived_model_fields_rejected(self, tmp_path, dataset, field, value, capsys):
        # each names the value it would be given anyway: any value is refused
        cfg = _write(tmp_path / "model.json", {**MODEL_JSON, field: value})
        rc = main(["finetune", "--dataset", str(dataset), "--model-config", cfg,
                   "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and field in err[0]

    def test_seed_flag_is_the_seed_used_and_recorded(self, tmp_path, dataset):
        out = _finetune(tmp_path, dataset, extra=["--seed", "5"])
        assert json.loads((out / "manifest.json").read_text())["seed"] == 5
        for aspect in ASPECTS:
            ckpt = load_checkpoint(out / f"model_{aspect.value}.ckpt")
            assert ckpt.rng_state["seed"] == cli._derive_seed(5, aspect)

    @pytest.mark.parametrize("flags, setting", [
        (["--seed", "1"], "--seed 1"),
        (["--freeze", "none"], "freeze mask 'none'"),
        (["--model-config", "wide.json"], "model config d_model 32"),
    ])
    def test_resume_rejects_settings_other_than_recorded(self, tmp_path, dataset, capsys, flags, setting):
        _write(tmp_path / "wide.json", {**MODEL_JSON, "d_model": 32})
        run = _finetune(tmp_path, dataset, extra=["--aspect", "MF"])
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        capsys.readouterr()
        rc = main(["finetune", "--dataset", str(dataset), "--aspect", "MF", "--resume",
                   str(run / "model_MF.ckpt"), "--out", str(run), "--quiet", *flags])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and setting in err[0]

    @pytest.mark.parametrize("edit", [
        lambda header: header["rng_state"].update(epochs_completed="x"),
        lambda header: header["rng_state"].update(epochs_completed=[1]),
        _flatten_a_first_moment,
        _flip_a_bit_of_a_second_moment_name,
        lambda header: header.update(arrays=[e for e in header["arrays"] if not e["name"].startswith("adam.m.")]),
    ], ids=["epochs-not-an-integer", "epochs-a-list", "moment-shape", "moment-name", "no-first-moments"])
    def test_resume_from_a_malformed_checkpoint_exits_1_with_one_line(self, tmp_path, dataset, capsys, edit):
        run = _finetune(tmp_path, dataset, extra=["--aspect", "MF"])
        _rewrite_header(run / "model_MF.ckpt", edit)
        two = _write(tmp_path / "two.json", {**FT_JSON, "epochs": 2})
        capsys.readouterr()
        rc = main(["finetune", "--dataset", str(dataset), "--aspect", "MF", "--config", two, "--resume",
                   str(run / "model_MF.ckpt"), "--out", str(run), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "model_MF.ckpt" in err[0]

    def test_resume_and_init_exclude_each_other(self, tmp_path, dataset):
        with pytest.raises(SystemExit) as exc:
            main(["finetune", "--dataset", str(dataset), "--resume", "a.ckpt", "--init", "b.ckpt", "--quiet"])
        assert exc.value.code == 2

    def test_init_rejects_another_model_config(self, tmp_path, dataset, capsys):
        pre = tmp_path / "pre"
        model_cfg = _write(tmp_path / "model.json", MODEL_JSON)
        assert main(["pretrain", "--dataset", str(dataset), "--model-config", model_cfg,
                     "--aspect", "MF", "--out", str(pre), "--quiet"]) == 0
        init = ["finetune", "--dataset", str(dataset), "--aspect", "MF",
                "--init", str(pre / "model_MF.ckpt"), "--out", str(tmp_path / "ft"), "--quiet"]
        assert main(init + ["--model-config", model_cfg]) == 0
        other = _write(tmp_path / "deep.json", {**MODEL_JSON, "num_layers": 2})
        capsys.readouterr()
        assert main(init + ["--model-config", other]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "num_layers 2" in err[0]

    def test_resume_continues_step_count(self, tmp_path, dataset):
        model_cfg = _write(tmp_path / "model.json", MODEL_JSON)
        two = _write(tmp_path / "two.json", {**FT_JSON, "epochs": 2})
        out = tmp_path / "r"
        assert main(["finetune", "--dataset", str(dataset), "--config", two,
                     "--model-config", model_cfg, "--aspect", "MF",
                     "--out", str(out), "--quiet"]) == 0
        four = _write(tmp_path / "four.json", {**FT_JSON, "epochs": 4})
        assert main(["finetune", "--dataset", str(dataset), "--config", four,
                     "--resume", str(out / "model_MF.ckpt"), "--aspect", "MF",
                     "--out", str(out), "--quiet"]) == 0
        lines = (out / "loss_MF.csv").read_text().splitlines()
        steps = [int(l.split(",")[0]) for l in lines[1:]]
        assert steps == sorted(set(steps))
        epochs = {int(l.split(",")[1]) for l in lines[1:]}
        assert epochs == {0, 1, 2, 3}

    def test_loss_log_records_the_warmed_up_rate_and_the_gradient_norm(self, tmp_path, dataset):
        run = _finetune(tmp_path, dataset, extra=["--aspect", "MF"])
        header, *lines = (run / "loss_MF.csv").read_text().splitlines()
        assert header == "step,epoch,aspect,loss,lr,grad_norm"
        rows = [line.split(",") for line in lines]
        assert rows and all(len(r) == 6 for r in rows)
        lr, per_step = FT_JSON["learning_rate"], FT_JSON["batch_size"] * FT_JSON["grad_accumulation"]
        assert [r[4] for r in rows] == [f"{lr * min(1.0, int(r[0]) * per_step / training.WARMUP_SEQUENCES):.10g}"
                                        for r in rows]
        assert all(math.isfinite(float(r[5])) and float(r[5]) > 0 for r in rows)

    def test_resume_refuses_a_loss_log_of_an_earlier_version(self, tmp_path, dataset, capsys):
        """A log without the lr and grad_norm columns was written by a run
        without the warmup; continuing it would mix both in one trace."""
        run = _finetune(tmp_path, dataset, extra=["--aspect", "MF"])
        log = run / "loss_MF.csv"
        header, *rows = log.read_text().splitlines(keepends=True)
        old = "step,epoch,aspect,loss\n" + "".join(r.rsplit(",", 2)[0] + "\n" for r in rows)
        log.write_text(old)
        capsys.readouterr()
        rc = main(["finetune", "--dataset", str(dataset), "--aspect", "MF", "--resume",
                   str(run / "model_MF.ckpt"), "--out", str(run), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'step,epoch,aspect,loss'" in err[0] and "cannot resume" in err[0]
        assert log.read_text() == old

    def test_resume_after_a_kill_mid_epoch_logs_each_step_once(self, tmp_path, dataset):
        model_cfg = _write(tmp_path / "model.json", MODEL_JSON)
        two = _write(tmp_path / "two.json", {**FT_JSON, "epochs": 2})
        four = _write(tmp_path / "four.json", {**FT_JSON, "epochs": 4})

        def finetune(cfg, out, *extra):
            assert main(["finetune", "--dataset", str(dataset), "--config", cfg,
                         "--model-config", model_cfg, "--aspect", "MF",
                         "--out", str(out), "--quiet", *extra]) == 0
            return out / "loss_MF.csv"

        whole = finetune(four, tmp_path / "whole").read_text()
        log = finetune(two, tmp_path / "cut")
        # a run killed in epoch 2 logged some of its steps, the last one half
        done = log.read_text()
        beyond = whole[len(done):].splitlines(keepends=True)
        assert len(beyond) > 2
        log.write_text(done + "".join(beyond[:2]) + beyond[2][:3])
        finetune(four, tmp_path / "cut", "--resume", str(tmp_path / "cut" / "model_MF.ckpt"))
        assert log.read_text() == whole

    def test_a_resume_killed_in_its_first_step_keeps_the_logged_rows(self, tmp_path, dataset):
        run = _finetune(tmp_path, dataset, extra=["--aspect", "MF"])
        log = run / "loss_MF.csv"
        logged = log.read_text()
        assert len(logged.splitlines()) > 1
        four = _write(tmp_path / "four.json", {**FT_JSON, "epochs": 4})
        kill_in_first_step = ("import os, signal, sys\n"
                              "from protgo import cli, training\n"
                              "training.adam_step = lambda *a, **k: os.kill(os.getpid(), signal.SIGKILL)\n"
                              "cli.main(sys.argv[1:])\n")
        src = str(Path(protgo.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", kill_in_first_step, "finetune", "--dataset", str(dataset),
             "--config", four, "--aspect", "MF", "--resume", str(run / "model_MF.ckpt"),
             "--out", str(run), "--quiet"],
            env={**os.environ, "PYTHONPATH": src}, timeout=300)
        assert proc.returncode == -signal.SIGKILL
        assert log.read_text() == logged

    def test_a_failed_resume_keeps_the_loss_log(self, tmp_path, dataset, half_writes):
        run = _finetune(tmp_path, dataset, extra=["--aspect", "MF"])
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        half_writes()
        assert main(["finetune", "--dataset", str(dataset), "--aspect", "MF", "--resume",
                     str(run / "model_MF.ckpt"), "--out", str(run), "--quiet"]) == 2
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_outputs_get_the_mode_open_gives_under_the_umask(self, tmp_path, corpus):
        previous = os.umask(0o022)
        try:
            dataset = tmp_path / "ds022"
            assert main(["preprocess", str(corpus), "--top-k", "3", "--max-len", "50",
                         "--out", str(dataset), "--quiet"]) == 0
            run = _finetune(tmp_path, dataset, "run022")
        finally:
            os.umask(previous)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for d in (dataset, run) for p in d.iterdir()}
        assert "model_BP.ckpt" in modes and "manifest.json" in modes
        assert modes == dict.fromkeys(modes, 0o644)


class TestSharedTrunk:
    @pytest.mark.parametrize("freeze, shared", [("default", 2), ("none", 0)])
    def test_from_scratch_aspects_share_their_frozen_layers(self, tmp_path, dataset, freeze, shared):
        """Each aspect's model starts from --seed, so fine-tuning with the lower
        half frozen leaves the three models that half and the embeddings in
        common; with nothing frozen they share nothing."""
        model_cfg = _write(tmp_path / "deep.json", {**MODEL_JSON, "num_layers": 4})
        out = tmp_path / "run"
        assert main(["finetune", "--dataset", str(dataset), "--config", _write(tmp_path / "ft.json", FT_JSON),
                     "--model-config", model_cfg, "--freeze", freeze, "--out", str(out), "--quiet"]) == 0
        paths = [str(out / f"model_{a.value}.ckpt") for a in ASPECTS]
        assert cli._load_fusion(paths, dataset, 0.5).shared_layers == shared
        (tmp_path / "q.tsv").write_text("Q1\tMKVLAEGH\n")
        assert main(["predict", str(tmp_path / "q.tsv"), "--bp", paths[0], "--mf", paths[1], "--cc", paths[2],
                     "--vocab-dir", str(dataset), "--out", str(tmp_path / "pred"), "--quiet"]) == 0
        assert main(["evaluate", "--dataset", str(dataset), "--model", str(out / "model_{aspect}.ckpt"),
                     "--out", str(tmp_path / "ev"), "--quiet"]) == 0
        for stage in ("pred", "ev"):
            assert json.loads((tmp_path / stage / "manifest.json").read_text())["shared_layers"] == shared


class TestHostIndependence:
    def test_finetune_writes_the_same_bytes_at_any_blas_or_cpu_count(self, tmp_path):
        """Default model config, one batch-8 step at 250-500 residues: big
        enough for OpenBLAS to thread, and cut into chunks that run on the
        pool's workers."""
        write_corpus_tsv(random_corpus(8, seed=3, min_len=250, max_len=500), tmp_path / "c.tsv")
        dataset = tmp_path / "ds"
        assert main(["preprocess", str(tmp_path / "c.tsv"), "--top-k", "3", "--max-len", "500",
                     "--out", str(dataset), "--quiet"]) == 0
        src = str(Path(protgo.__file__).resolve().parents[1])
        # the last run sees one CPU from before numpy starts OpenBLAS, as on a one-CPU host
        one_cpu = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                   "from protgo.cli import main; sys.exit(main(sys.argv[1:]))")
        cli_module = ["-m", "protgo.cli"]
        runs = {}
        for name, blas, launch in (("blas1", "1", cli_module), ("blas2", "2", cli_module),
                                   ("cpu1", "2", ["-c", one_cpu])):
            out = tmp_path / name
            subprocess.run([sys.executable, *launch, "finetune", "--dataset", str(dataset), "--aspect", "BP",
                            "--out", str(out), "--quiet"],
                           env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": blas},
                           check=True, timeout=300)
            runs[name] = {f: (out / f).read_bytes() for f in ("model_BP.ckpt", "loss_BP.csv")}
        assert runs["blas1"] == runs["blas2"] == runs["cpu1"]


class TestPredictCommand:
    def test_threshold_zero_emits_everything(self, tmp_path, dataset):
        run = _finetune(tmp_path, dataset)
        query = tmp_path / "q.tsv"
        query.write_text("Q1\tMKVLAE\t\n")
        out = tmp_path / "pred"
        assert main(["predict", str(query), "--bp", str(run / "model_BP.ckpt"),
                     "--mf", str(run / "model_MF.ckpt"), "--cc", str(run / "model_CC.ckpt"),
                     "--vocab-dir", str(dataset), "--threshold", "0",
                     "--out", str(out), "--quiet"]) == 0
        lines = (out / "predictions.tsv").read_text().splitlines()
        assert len(lines) == 9  # 3 aspects x top-3 vocab
        assert _pool_record(out) in POOL_RECORDS
        recorded = json.loads((out / "manifest.json").read_text())
        assert {k: recorded[k] for k in ("simd_targets", "blas_core")} == ad.compute_fingerprint()

    @pytest.mark.parametrize("length, truncated", [(55, 1), (50, 0)])
    def test_queries_longer_than_max_len_are_counted(self, tmp_path, dataset, capsys, length, truncated):
        run = _finetune(tmp_path, dataset)  # the dataset's max_len is 50
        query = tmp_path / "q.tsv"
        query.write_text(f"Q1\t{'MKVLA' * (length // 5)}\t\nQ2\tMKVLAE\t\n")
        out = tmp_path / "pred"
        capsys.readouterr()
        assert main(["predict", str(query), "--bp", str(run / "model_BP.ckpt"),
                     "--mf", str(run / "model_MF.ckpt"), "--cc", str(run / "model_CC.ckpt"),
                     "--vocab-dir", str(dataset), "--out", str(out), "--quiet"]) == 0
        said = "predict: scored 1 of 2 queries on their first 50 residues (the models' max_len)\n"
        assert capsys.readouterr().err == (said if truncated else "")
        assert json.loads((out / "manifest.json").read_text())["truncated_queries"] == truncated

    def test_missing_checkpoint_file(self, tmp_path, dataset):
        query = tmp_path / "q.tsv"
        query.write_text("Q1\tMKV\t\n")
        rc = main(["predict", str(query), "--bp", str(tmp_path / "nope.ckpt"),
                   "--mf", str(tmp_path / "nope.ckpt"), "--cc", str(tmp_path / "nope.ckpt"),
                   "--vocab-dir", str(dataset), "--out", str(tmp_path / "p"), "--quiet"])
        assert rc == 2


class TestEvaluateCommand:
    def _self_predictions(self, dataset, path):
        """Prediction TSV that echoes the targets with score 1."""
        records = parse_tsv(dataset / "records.tsv")
        lines = []
        for aspect in ASPECTS:
            vocab = read_vocabulary(dataset / f"vocab_{aspect.value}.tsv", aspect)
            labels = path.parent / f"labels_{aspect.value}.tsv"
            write_labels(records, vocab, labels)
            for row in labels.read_text().splitlines():
                accession, bits = row.split("\t")
                for i, b in enumerate(bits):
                    if b == "1":
                        lines.append(f"{accession}\t{vocab.terms[i]}\t{aspect.value}\t1.000000")
        path.write_text("\n".join(lines) + "\n")

    def test_derived_labels_match_the_written_ones(self, tmp_path, dataset):
        records = parse_tsv(dataset / "records.tsv")
        dropped = 0
        for aspect in ASPECTS:
            vocab = read_vocabulary(dataset / f"vocab_{aspect.value}.tsv", aspect)
            write_labels(records, vocab, tmp_path / "labels.tsv")
            rows, labels = cli._labelled(records, vocab)
            derived = "".join(f"{r.accession}\t{''.join(map(str, y))}\n" for r, y in zip(rows, labels))
            assert derived == (tmp_path / "labels.tsv").read_text()
            dropped += len(records) - len(rows)
        assert dropped  # some records carry no term of some aspect

    def test_self_evaluation_is_perfect(self, tmp_path, dataset, capsys):
        pred = tmp_path / "pred.tsv"
        self._self_predictions(dataset, pred)
        out = tmp_path / "ev"
        assert main(["evaluate", "--dataset", str(dataset), "--predictions", str(pred),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for aspect in ("BP", "MF", "CC"):
            assert report[aspect]["subset_accuracy"] == 1.0
            assert report[aspect]["f1"] == 1.0
        shown = capsys.readouterr().out
        assert "100.00%" in shown

    def test_blank_and_placeholder_lines_are_skipped(self, tmp_path, dataset):
        pred = tmp_path / "pred.tsv"
        self._self_predictions(dataset, pred)
        pred.write_text("\n" + pred.read_text() + "NOHIT\t-\t-\t-\n\n")
        out = tmp_path / "ev"
        assert main(["evaluate", "--dataset", str(dataset), "--predictions", str(pred),
                     "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(report[aspect]["f1"] == 1.0 for aspect in ("BP", "MF", "CC"))

    def test_all_zero_predictions_zero_recall(self, tmp_path, dataset):
        pred = tmp_path / "pred.tsv"
        pred.write_text("")
        out = tmp_path / "ev0"
        assert main(["evaluate", "--dataset", str(dataset), "--predictions", str(pred),
                     "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        for aspect in ("BP", "MF", "CC"):
            assert report[aspect]["recall"] == 0.0

    def test_threshold_sweep_writes_one_report_each(self, tmp_path, dataset):
        pred = tmp_path / "pred.tsv"
        self._self_predictions(dataset, pred)
        out = tmp_path / "evsweep"
        assert main(["evaluate", "--dataset", str(dataset), "--predictions", str(pred),
                     "--threshold", "0.3", "0.5", "0.9", "--out", str(out), "--quiet"]) == 0
        for key in ("0.3", "0.5", "0.9"):
            assert (out / f"report_{key}.json").exists()

    def test_empty_test_split_rejected(self, tmp_path, dataset):
        split_dir = tmp_path / "empty_split"
        split_dir.mkdir()
        (split_dir / "split.json").write_text('{"kind": "random", "seed": 0}')
        for name in ("train.ids", "dev.ids", "test.ids"):
            (split_dir / name).write_text("")
        pred = tmp_path / "pred.tsv"
        pred.write_text("")
        rc = main(["evaluate", "--dataset", str(dataset), "--predictions", str(pred),
                   "--split", str(split_dir), "--out", str(tmp_path / "e"), "--quiet"])
        assert rc == 1

    def test_roc_and_sla_csvs_written(self, tmp_path, dataset):
        pred = tmp_path / "pred.tsv"
        self._self_predictions(dataset, pred)
        out = tmp_path / "evcsv"
        assert main(["evaluate", "--dataset", str(dataset), "--predictions", str(pred),
                     "--out", str(out), "--quiet"]) == 0
        for aspect in ("BP", "MF", "CC"):
            assert (out / f"roc_{aspect}.csv").read_text().startswith("fpr,tpr,threshold")
            assert (out / f"sla_{aspect}.csv").read_text().startswith("bucket_lo,bucket_hi,count,accuracy")


@pytest.fixture
def trained(tmp_path):
    """A dataset whose records include some longer than the models' max_len
    (50) and the three checkpoints fine-tuned on it."""
    records = random_corpus(30, seed=7, go_pool=9) + random_corpus(6, seed=8, min_len=60, max_len=90, go_pool=9)
    records = [type(r)(f"P{i:04d}", r.sequence, r.annotations) for i, r in enumerate(records)]
    write_corpus_tsv(records, tmp_path / "corpus.tsv")
    dataset = tmp_path / "ds"
    assert main(["preprocess", str(tmp_path / "corpus.tsv"), "--top-k", "3", "--max-len", "50",
                 "--out", str(dataset), "--quiet"]) == 0
    return dataset, _finetune(tmp_path, dataset) / "model_{aspect}.ckpt"


class TestEvaluateWithModels:
    @staticmethod
    def _evaluate(dataset, ckpt, out, *extra):
        assert main(["evaluate", "--dataset", str(dataset), "--model", str(ckpt), "--out", str(out),
                     "--quiet", *extra]) == 0

    def test_scores_are_those_of_fusion_predict(self, tmp_path, trained, monkeypatch):
        dataset, ckpt = trained
        seen = []
        roc = cli.metrics.micro_roc
        monkeypatch.setattr(cli.metrics, "micro_roc",
                            lambda scores, targets: seen.append(scores) or roc(scores, targets))
        self._evaluate(dataset, ckpt, tmp_path / "ev")

        records = parse_tsv(dataset / "records.tsv")
        assert any(len(r.sequence) > 50 for r in records)
        fusion = cli._load_fusion([str(ckpt).format(aspect=a.value) for a in ASPECTS], dataset, 0.5)
        with ad.cpu_pool():
            expected = {r.accession: fusion.predict(r.sequence, r.accession).scores for r in records}
        assert len(seen) == len(ASPECTS)
        for aspect, scores in zip(ASPECTS, seen):
            rows, _ = cli._labelled(records, fusion.vocabs[aspect])
            assert len(rows) < len(records)  # some record has no term of this aspect
            assert np.array_equal(scores, np.stack([expected[r.accession][aspect] for r in rows]))

    def test_every_forward_runs_inside_fusion_predict(self, tmp_path, trained, monkeypatch):
        """The benchmark's tracer keeps one span stack for all threads. A
        scorer that ran forwards on the pool's workers outside a
        FusionModel.predict span left annotate's traced evaluate stage with
        0.34-0.35 of its wall time covered by layer rows, under the 0.9 a
        correct traced run needs; so evaluate scores only through predict."""
        dataset, ckpt = trained
        inside = threading.local()
        predicts, forwards = [], []
        predict, forward = FusionModel.predict, ProteinEncoder.forward_classify

        def flagged_predict(self, *args):
            inside.flag = True
            try:
                predicts.append(args)
                return predict(self, *args)
            finally:
                inside.flag = False

        def checked_forward(self, *args, **kwargs):
            forwards.append(getattr(inside, "flag", False))
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(FusionModel, "predict", flagged_predict)
        monkeypatch.setattr(ProteinEncoder, "forward_classify", checked_forward)
        self._evaluate(dataset, ckpt, tmp_path / "ev")
        records = parse_tsv(dataset / "records.tsv")
        assert sorted(a for _, a in predicts) == sorted(r.accession for r in records)  # once per record
        assert len(forwards) == len(ASPECTS) * len(records) and all(forwards)

    def test_records_are_queued_longest_first(self, tmp_path, trained, monkeypatch):
        dataset, ckpt = trained
        monkeypatch.setattr(ad, "_cpus", lambda: 1)  # one worker: calls start in the order queued
        calls, predict = [], FusionModel.predict

        def recorded(self, sequence, accession="-"):
            calls.append((len(sequence), accession))
            return predict(self, sequence, accession)

        monkeypatch.setattr(FusionModel, "predict", recorded)
        self._evaluate(dataset, ckpt, tmp_path / "ev")
        records = parse_tsv(dataset / "records.tsv")
        assert calls == sorted(((len(r.sequence), r.accession) for r in records), key=lambda c: -c[0])
        assert calls != [(len(r.sequence), r.accession) for r in records]

    def test_batch_size_changes_no_output(self, tmp_path, trained):
        dataset, ckpt = trained
        for size in ("1", "16"):
            self._evaluate(dataset, ckpt, tmp_path / size, "--batch-size", size, "--threshold", "0.3", "0.6")
        names = sorted(p.name for p in (tmp_path / "1").iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in (tmp_path / "16").iterdir() if p.name != "manifest.json")
        assert len(names) == 8  # 3 ROC and 3 SLA CSVs, 2 reports
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "16" / name).read_bytes(), name


def _rewrite_header(path, edit):
    """Passes a checkpoint's JSON header through `edit`; the payload stays."""
    blob = path.read_bytes()
    n = struct.unpack("<I", blob[4:8])[0]
    header = json.loads(blob[8:8 + n])
    edit(header)
    raw = json.dumps(header).encode()
    path.write_bytes(blob[:4] + struct.pack("<I", len(raw)) + raw + blob[8 + n:])


def _predict_with_bp_header(edit):
    def make(tmp_path, dataset):
        run = _finetune(tmp_path, dataset)
        _rewrite_header(run / "model_BP.ckpt", edit)
        query = tmp_path / "q.tsv"
        query.write_text("Q1\tMKVLAE\t\n")
        return ["predict", str(query), "--bp", str(run / "model_BP.ckpt"), "--mf", str(run / "model_MF.ckpt"),
                "--cc", str(run / "model_CC.ckpt"), "--vocab-dir", str(dataset), "--out", str(tmp_path / "p")]
    return make


def _evaluate(tmp_path, dataset, predictions="", split=None):
    pred = tmp_path / "pred.tsv"
    pred.write_text(predictions)
    argv = ["evaluate", "--dataset", str(dataset), "--predictions", str(pred), "--out", str(tmp_path / "e")]
    return argv + (["--split", str(split)] if split else [])


def _manifest_not_json(tmp_path, dataset):
    (tmp_path / "manifest.json").write_text('{"command": "split", ')
    return ["verify", str(tmp_path / "manifest.json")]


def _vocabulary_line_of_two_columns(tmp_path, dataset):
    with open(dataset / "vocab_MF.tsv", "a", encoding="utf-8") as fh:
        fh.write("4\tGO:0000004\n")
    return _evaluate(tmp_path, dataset)


def _score_of(value):
    def make(tmp_path, dataset):
        accession = parse_tsv(dataset / "records.tsv")[0].accession
        go_id = read_vocabulary(dataset / "vocab_BP.tsv", ASPECTS[0]).terms[0]
        return _evaluate(tmp_path, dataset, f"{accession}\t{go_id}\tBP\t{value}\n")
    return make


def _evaluate_threshold(value):
    return lambda tmp_path, dataset: _evaluate(tmp_path, dataset) + ["--threshold", value]


def _predictions_line_of_three_columns(tmp_path, dataset):
    accession = parse_tsv(dataset / "records.tsv")[0].accession
    go_id = read_vocabulary(dataset / "vocab_BP.tsv", ASPECTS[0]).terms[0]
    return _evaluate(tmp_path, dataset, f"{accession}\t{go_id}\tBP 0.9\n")


def _preprocess_with(top_k, max_len):
    def make(tmp_path, dataset):
        return ["preprocess", str(tmp_path / "corpus.tsv"), "--top-k", top_k, "--max-len", max_len,
                "--out", str(tmp_path / "ds0")]
    return make


def _split_without_seed(tmp_path, dataset):
    split = tmp_path / "split"
    assert main(["split", "--dataset", str(dataset), "--kind", "random", "--out", str(split), "--quiet"]) == 0
    (split / "split.json").write_text('{"kind": "random"}\n')
    return _evaluate(tmp_path, dataset, split=split)


def _clustered_split_with_kmer(kmer):
    def make(tmp_path, dataset):
        return ["split", "--dataset", str(dataset), "--kind", "clustered", "--kmer", kmer,
                "--out", str(tmp_path / "split")]
    return make


def _model_config_not_json(tmp_path, dataset):
    (tmp_path / "model.json").write_text("num_layers: 1\n")
    return ["finetune", "--dataset", str(dataset), "--model-config", str(tmp_path / "model.json"),
            "--out", str(tmp_path / "o")]


def _last_array_past_payload(header):
    header["arrays"][-1]["offset"] += 8


class TestMalformedInput:
    @pytest.mark.parametrize("make_argv", [
        _manifest_not_json,
        _vocabulary_line_of_two_columns,
        _score_of("high"),
        _split_without_seed,
        _model_config_not_json,
        _predict_with_bp_header(lambda header: header.pop("rng_state")),
        _predict_with_bp_header(_last_array_past_payload),
        _predict_with_bp_header(lambda header: header["optimizer"].pop("step")),
        _predictions_line_of_three_columns,
        _preprocess_with(top_k="0", max_len="50"),
        _preprocess_with(top_k="3", max_len="0"),
        _score_of("nan"),
        _score_of("inf"),
        _score_of("1.5"),
        _evaluate_threshold("1.5"),
        _evaluate_threshold("nan"),
        _predict_with_bp_header(lambda header: header.update(arrays=5)),
        _clustered_split_with_kmer("1"),
        _clustered_split_with_kmer("14"),
    ], ids=["manifest", "vocabulary", "score", "split", "model-config", "header-key", "array-offset",
            "optimizer-step", "predictions-columns", "top-k-zero", "max-len-zero", "score-nan", "score-inf",
            "score-above-one", "threshold-above-one", "threshold-nan", "arrays-not-a-list", "kmer-one",
            "kmer-above-13"])
    def test_exit_1_with_one_line(self, tmp_path, dataset, capsys, make_argv):
        argv = make_argv(tmp_path, dataset)
        capsys.readouterr()
        assert main(argv + ["--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [
        ["evaluate", "--dataset", "ds", "--predictions", "p.tsv", "--bucket-width", "50"],
        ["preprocess", "corpus.tsv", "--config", "x.json"],
        ["finetune", "--dataset", "ds", "--parallel-aspects"],
    ])
    def test_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--quiet"])
        assert exc.value.code == 2


def _flip_last_byte(path):
    blob = path.read_bytes()
    path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))


class TestVerify:
    def test_clean_and_drifted(self, tmp_path, corpus, dataset):
        manifest = dataset / "manifest.json"
        assert main(["verify", str(manifest), "--quiet"]) == 0
        corpus.write_text(corpus.read_text() + "# drift\n")
        assert main(["verify", str(manifest), "--quiet"]) == 1

    def _drifts_after_edit(self, capsys, run, path, kind):
        manifest = str(run / "manifest.json")
        assert main(["verify", manifest, "--quiet"]) == 0
        _flip_last_byte(path)
        capsys.readouterr()
        assert main(["verify", manifest, "--quiet"]) == 1
        assert capsys.readouterr().err == f"verify: {kind} digest drift: {path}\n"

    def test_a_changed_output_drifts(self, tmp_path, dataset, capsys):
        run = _finetune(tmp_path, dataset)
        query = tmp_path / "q.tsv"
        query.write_text("Q1\tMKVLAE\t\n")
        pred = tmp_path / "pred"
        assert main(["predict", str(query), "--bp", str(run / "model_BP.ckpt"),
                     "--mf", str(run / "model_MF.ckpt"), "--cc", str(run / "model_CC.ckpt"),
                     "--vocab-dir", str(dataset), "--out", str(pred), "--quiet"]) == 0
        self._drifts_after_edit(capsys, pred, pred / "predictions.tsv", "output")
        self._drifts_after_edit(capsys, run, run / "model_CC.ckpt", "output")

    def test_a_changed_input_drifts(self, tmp_path, dataset, capsys):
        assert main(_evaluate(tmp_path, dataset, "\n") + ["--quiet"]) == 0
        self._drifts_after_edit(capsys, tmp_path / "e", tmp_path / "pred.tsv", "input")
        pre = tmp_path / "pre"
        model_cfg = _write(tmp_path / "model.json", MODEL_JSON)
        assert main(["pretrain", "--dataset", str(dataset), "--model-config", model_cfg,
                     "--aspect", "MF", "--out", str(pre), "--quiet"]) == 0
        run = _finetune(tmp_path, dataset, extra=["--aspect", "MF", "--init", str(pre / "model_MF.ckpt")])
        self._drifts_after_edit(capsys, run, pre / "model_MF.ckpt", "input")

    def test_an_in_place_resume_records_the_checkpoint_it_read(self, tmp_path, dataset):
        run = _finetune(tmp_path, dataset, extra=["--aspect", "MF"])
        ckpt = run / "model_MF.ckpt"
        read = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        two = _write(tmp_path / "two.json", {**FT_JSON, "epochs": 2})
        assert main(["finetune", "--dataset", str(dataset), "--config", two, "--aspect", "MF",
                     "--resume", str(ckpt), "--out", str(run), "--quiet"]) == 0
        recorded = json.loads((run / "manifest.json").read_text())
        assert recorded["input_digests"][str(ckpt)] == read
        assert recorded["output_digests"][str(ckpt)] == hashlib.sha256(ckpt.read_bytes()).hexdigest() != read
        assert main(["verify", str(run / "manifest.json"), "--quiet"]) == 0

    def test_a_manifest_without_output_digests_checks_its_inputs(self, tmp_path, corpus, dataset):
        manifest = dataset / "manifest.json"
        recorded = json.loads(manifest.read_text())
        del recorded["output_digests"]
        manifest.write_text(json.dumps(recorded))
        _flip_last_byte(dataset / "records.tsv")
        assert main(["verify", str(manifest), "--quiet"]) == 0
        _flip_last_byte(corpus)
        assert main(["verify", str(manifest), "--quiet"]) == 1

    def test_model_commands_record_their_pool(self, tmp_path, dataset):
        model_cfg = _write(tmp_path / "model.json", MODEL_JSON)
        assert main(["pretrain", "--dataset", str(dataset), "--model-config", model_cfg,
                     "--aspect", "MF", "--out", str(tmp_path / "pre"), "--quiet"]) == 0
        run = _finetune(tmp_path, dataset)
        assert main(["evaluate", "--dataset", str(dataset), "--model", str(run / "model_{aspect}.ckpt"),
                     "--out", str(tmp_path / "ev"), "--quiet"]) == 0
        for out in (tmp_path / "pre", run, tmp_path / "ev"):
            assert _pool_record(out) in POOL_RECORDS
        recorded = [json.loads((out / "manifest.json").read_text()) for out in (tmp_path / "pre", run, tmp_path / "ev")]
        budgets = [m.get("token_budget") for m in recorded]
        assert budgets == [training.TOKEN_BUDGET, training.TOKEN_BUDGET, None]  # only training chunks
        warmups = [m.get("warmup_sequences") for m in recorded]
        assert warmups == [training.WARMUP_SEQUENCES, training.WARMUP_SEQUENCES, None]
        fingerprint = ad.compute_fingerprint()
        assert [{k: m.get(k) for k in fingerprint} for m in recorded] == [fingerprint] * 3
        pred = tmp_path / "pred.tsv"
        pred.write_text("")
        assert main(["evaluate", "--dataset", str(dataset), "--predictions", str(pred),
                     "--out", str(tmp_path / "evp"), "--quiet"]) == 0
        assert _pool_record(tmp_path / "evp") == (None, None)  # no model ran

    def test_the_compute_fingerprint(self, monkeypatch):
        fingerprint = ad.compute_fingerprint()
        assert all(isinstance(t, str) for t in fingerprint["simd_targets"])
        assert (fingerprint["blas_core"] is None) == (ad._openblas() is None)  # e.g. "SkylakeX" if not

        class ThreadsOnly:  # an OpenBLAS that exports its thread calls but no core name
            scipy_openblas_get_num_threads64_ = ctypes.CFUNCTYPE(ctypes.c_int)(lambda: 1)
            scipy_openblas_set_num_threads64_ = ctypes.CFUNCTYPE(None, ctypes.c_int)(lambda n: None)

        monkeypatch.setattr(ad.ctypes, "CDLL", lambda path: ThreadsOnly())
        assert ad.compute_fingerprint() == {**fingerprint, "blas_core": None}
        assert ad._openblas.__wrapped__() is not None  # the pool still pins the BLAS threads
        monkeypatch.setattr(ad.ctypes, "CDLL", lambda path: object())  # another BLAS
        assert ad.compute_fingerprint() == {**fingerprint, "blas_core": None}

    def test_every_command_writes_manifest(self, tmp_path, dataset):
        out = tmp_path / "s"
        main(["split", "--dataset", str(dataset), "--kind", "random", "--out", str(out), "--quiet"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "split"
        assert manifest["seed"] == 0
        assert manifest["input_digests"]

    def test_manifest_records_peak_rss_and_numpy(self, tmp_path, dataset):
        out = tmp_path / "s"
        assert main(["split", "--dataset", str(dataset), "--kind", "random", "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["numpy"] == np.__version__
        # the process's peak so far: at least what numpy alone takes, far below the host's memory
        assert 10 < manifest["peak_rss_mib"] < 64 * 1024
