"""Acceptance suite: ten release-gating checks, one per test, each printing a
single pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete)."""

import json
import math
import time

import numpy as np
import pytest

from protgo import autodiff as ad
from protgo import ingest
from protgo.cli import main as cli_main
from protgo.metrics import length_analysis, micro_roc, prf1
from protgo.model import FreezeMask, ModelConfig, ProteinEncoder, group_of, pad_batch
from protgo.splitter import audit_leakage, cluster_sequences, clustered_split, random_split
from protgo.training import (
    FinetuneConfig, PretrainConfig, finetune_loss, mask_tokens,
    mlm_loss, resume_state, train_loop,
)
from conftest import RESIDUES, random_corpus, write_corpus_tsv
from oracles import finite_difference_grads, pairwise_auc
from test_metrics import PUBLISHED_PRF, counts_realizing


def _gate(number, description, budget_s, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"exceeded {budget_s}s budget ({elapsed:.1f}s)"
    except Exception:
        print(f"criterion {number:2d} [FAIL] {description}")
        raise
    print(f"criterion {number:2d} [PASS] {description} ({elapsed:.1f}s)")


def test_criterion_01_f1_identity():
    def body():
        for p, r, f1 in PUBLISHED_PRF:
            _, _, computed = prf1(counts_realizing(p, r))
            assert computed == pytest.approx(f1, abs=5e-4), (p, r, f1, computed)

    _gate(1, "micro-F1 identity reproduces every published (P, R, F1) row", 1.0, body)


def test_criterion_02_gradient_fidelity():
    def body():
        cfg = ModelConfig(num_layers=2, d_model=8, num_heads=2, d_ff=16,
                          max_len=8, num_labels=3, dropout=0.0)
        model = ProteinEncoder(cfg, seed=11)
        jitter = np.random.default_rng(13)
        for t in model.params.values():  # move off init so every gradient is generic
            t.data += jitter.normal(0.0, 0.05, size=t.data.shape)
        toks = ingest.tokenize("MKVLAE", cfg.max_len)  # 6 residues -> 8 tokens
        ids, mask = pad_batch([toks])
        bits = np.array([[1, 0, 1]], dtype=np.float64)
        masked = [(3, toks.ids[3])]

        def loss_tensor():
            cls = finetune_loss(model.forward_classify(ids, mask), bits)
            mlm = mlm_loss(model.forward_mlm(ids, mask), [masked])
            return ad.add(cls, mlm)

        loss = loss_tensor()
        loss.backward()
        analytic = {k: t.grad.copy() for k, t in model.params.items()}

        arrays = {k: t.data for k, t in model.params.items()}
        rng = np.random.default_rng(0)
        fd = finite_difference_grads(lambda: float(loss_tensor().data), arrays,
                                     h=1e-5, sample=20, rng=rng)
        worst = 0.0
        for name, entries in fd.items():
            flat = analytic[name].ravel()
            for i, fd_val in entries.items():
                denom = max(abs(fd_val), abs(flat[i]), 1e-6)
                worst = max(worst, abs(fd_val - flat[i]) / denom)
        assert worst < 1e-3, f"worst relative error {worst:.2e}"

    _gate(2, "end-to-end finite-difference gradient check (rel err < 1e-3)", 30.0, body)


def test_criterion_03_overfit_oracle():
    def body():
        cfg = ModelConfig(num_layers=4, d_model=64, num_heads=4, d_ff=256,
                          max_len=24, num_labels=8, dropout=0.0)
        rng = np.random.default_rng(0)
        data = []
        for _ in range(32):
            length = int(rng.integers(10, 21))
            seq = "".join(rng.choice(list(RESIDUES), size=length))
            bits = (rng.random(8) < 0.4).astype(np.int8)
            if not bits.any():
                bits[int(rng.integers(8))] = 1
            data.append((ingest.tokenize(seq, cfg.max_len), bits))
        model = ProteinEncoder(cfg, seed=1)
        config = FinetuneConfig(epochs=200, batch_size=8, grad_accumulation=1,
                                learning_rate=1e-3, seed=2)
        _, records = train_loop(model, data, config, mode="finetune",
                                freeze_mask=FreezeMask.none(cfg))
        final = float(np.mean([r.loss for r in records if r.epoch == records[-1].epoch]))
        assert final < 0.01, f"final-epoch mean loss {final:.4f}"
        ids, mask = pad_batch([t for t, _ in data])
        scores = ad.sigmoid(model.forward_classify(ids, mask).data)
        targets = np.stack([b for _, b in data])
        exact = np.mean(np.all((scores >= 0.5) == targets.astype(bool), axis=-1))
        assert exact >= 0.95, f"training subset accuracy {exact:.3f}"

    _gate(3, "overfit oracle: 32 sequences memorized (loss < 0.01, accuracy >= 95%)", 300.0, body)


def test_criterion_04_mlm_sanity():
    def body():
        cfg = ModelConfig(num_layers=2, d_model=32, num_heads=2, d_ff=64,
                          max_len=32, dropout=0.0)
        rng = np.random.default_rng(3)
        data = []
        for _ in range(500):
            length = int(rng.integers(16, 33))
            data.append(ingest.tokenize("".join(rng.choice(list("ACDE"), size=length)), cfg.max_len))
        model = ProteinEncoder(cfg, seed=5)

        mask_rng = np.random.default_rng(6)
        losses, weights = [], []
        for start in range(0, len(data), 64):
            masked = [mask_tokens(t, 0.15, mask_rng) for t in data[start : start + 64]]
            ids, pad = pad_batch([m for m, _ in masked])
            losses.append(float(mlm_loss(model.forward_mlm(ids, pad), [t for _, t in masked]).data))
            weights.append(sum(len(t) for _, t in masked))
        init = float(np.average(losses, weights=weights))
        assert abs(init - math.log(30)) <= 0.01, f"initial loss {init:.4f} vs ln(30)"

        config = PretrainConfig(epochs=50, batch_size=32, learning_rate=0.002,
                                weight_decay=0.01, seed=4)
        _, records = train_loop(model, data, config, mode="pretrain")
        best = min(r.loss for r in records)
        assert best < 2.0, f"best masked-token loss {best:.3f}"

    _gate(4, "masked-LM pretraining: loss falls from ~ln(30) to < 2.0", 600.0, body)


def test_criterion_05_split_contracts():
    def body():
        for n in (10, 100, 101, 999):
            split = random_split([f"P{i}" for i in range(n)], seed=0)
            hold = n // 10
            assert (len(split.train), len(split.dev), len(split.test)) == (n - 2 * hold, hold, hold)
        for corpus_seed in range(100):
            records = random_corpus(20, seed=corpus_seed, min_len=12, max_len=40)
            # add near-duplicates so clusters are non-trivial
            records = records + [
                type(records[0])(f"D{i}", records[i].sequence, records[i].annotations)
                for i in range(5)
            ]
            assignment = cluster_sequences(records, identity_threshold=0.5, kmer=5)
            for seed in range(5):
                split = clustered_split(assignment, (0.8, 0.1, 0.1), seed=seed)
                assert audit_leakage(split, assignment) == []

    _gate(5, "split sizes exact and clustered-split leakage is zero (100 corpora x 5 seeds)", 120.0, body)


def test_criterion_06_roc_correctness():
    def body():
        assert micro_roc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])).auc == 1.0
        assert micro_roc(np.full(10, 0.5), np.array([1, 0] * 5)).auc == 0.5
        hand = micro_roc(np.array([0.9, 0.8, 0.3, 0.1]), np.array([1, 0, 1, 0])).auc
        assert hand == pytest.approx(0.75, abs=1e-12)
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 50:
            n = int(rng.integers(4, 60))
            scores = np.round(rng.random(n), 1)
            bits = rng.integers(0, 2, size=n)
            if bits.sum() in (0, n):
                continue
            assert micro_roc(scores, bits).auc == pytest.approx(pairwise_auc(scores, bits), abs=1e-9)
            checked += 1

    _gate(6, "ROC/AUC matches hand cases and all-pairs oracle within 1e-9", 60.0, body)


def test_criterion_07_grad_accumulation_equivalence():
    def body():
        cfg = ModelConfig(num_layers=1, d_model=8, num_heads=2, d_ff=16,
                          max_len=16, num_labels=4, dropout=0.0)
        rng = np.random.default_rng(12)
        data = []
        for _ in range(640):  # 20 optimizer steps of 32 samples
            seq = "".join(rng.choice(list(RESIDUES), size=int(rng.integers(6, 14))))
            data.append((ingest.tokenize(seq, cfg.max_len),
                         rng.integers(0, 2, size=4).astype(np.int8)))
        finals = []
        for batch_size, accum in ((8, 4), (32, 1)):
            model = ProteinEncoder(cfg, seed=2)
            config = FinetuneConfig(epochs=1, batch_size=batch_size,
                                    grad_accumulation=accum, learning_rate=1e-3, seed=7)
            train_loop(model, data, config, mode="finetune")
            finals.append({k: t.data.copy() for k, t in model.params.items()})
        for k in finals[0]:
            diff = np.max(np.abs(finals[0][k] - finals[1][k]))
            assert diff <= 1e-10, f"{k} trajectories diverge by {diff:.2e}"

    _gate(7, "gradient accumulation 4x8 matches one 32-batch within 1e-10 over 20 steps", 120.0, body)


def test_criterion_08_freeze_and_resume(tmp_path):
    def body():
        cfg = ModelConfig(num_layers=2, d_model=8, num_heads=2, d_ff=16,
                          max_len=16, num_labels=4, dropout=0.0)
        rng = np.random.default_rng(4)
        data = []
        for _ in range(40):
            seq = "".join(rng.choice(list(RESIDUES), size=int(rng.integers(6, 14))))
            data.append((ingest.tokenize(seq, cfg.max_len),
                         rng.integers(0, 2, size=4).astype(np.int8)))

        mask = FreezeMask.default_finetune(cfg)
        model = ProteinEncoder(cfg, seed=3)
        frozen_names = [k for k in model.params if mask.is_frozen(group_of(k))]
        before = {k: model.params[k].data.copy() for k in frozen_names}
        # 40 samples, batch 4 -> 10 steps/epoch; 10 epochs -> 100 optimizer steps
        config = FinetuneConfig(epochs=10, batch_size=4, grad_accumulation=1,
                                learning_rate=1e-3, seed=8)
        train_loop(model, data, config, mode="finetune", freeze_mask=mask)
        for k in frozen_names:
            assert model.params[k].data.tobytes() == before[k].tobytes(), f"{k} drifted"

        # uninterrupted 6-epoch run vs 3 epochs + checkpoint + resumed 3 epochs
        full_model = ProteinEncoder(cfg, seed=3)
        _, full = train_loop(full_model, data,
                             FinetuneConfig(epochs=6, batch_size=4, grad_accumulation=1,
                                            learning_rate=1e-3, seed=8),
                             mode="finetune", freeze_mask=mask)
        half_model = ProteinEncoder(cfg, seed=3)
        ckpt_path = tmp_path / "half.ckpt"
        ckpt, first = train_loop(half_model, data,
                                 FinetuneConfig(epochs=3, batch_size=4, grad_accumulation=1,
                                                learning_rate=1e-3, seed=8),
                                 mode="finetune", freeze_mask=mask,
                                 checkpoint_path=ckpt_path)
        from protgo.checkpoint import load_checkpoint

        restored = load_checkpoint(ckpt_path)
        resumed_model = restored.to_model()
        start_epoch, adam = resume_state(restored, resumed_model)
        _, rest = train_loop(resumed_model, data,
                             FinetuneConfig(epochs=6, batch_size=4, grad_accumulation=1,
                                            learning_rate=1e-3, seed=8),
                             mode="finetune", freeze_mask=mask,
                             start_epoch=start_epoch, adam_state=adam)
        assert [r.loss for r in first + rest] == [r.loss for r in full]
        for k, t in full_model.params.items():
            assert t.data.tobytes() == resumed_model.params[k].data.tobytes()

    _gate(8, "frozen groups bitwise stable over 100 steps; resume replays the loss trace exactly", 120.0, body)


def test_criterion_09_truncation_and_sla():
    def body():
        toks = ingest.tokenize("A" * 1200, 1000)
        assert len(toks.ids) == 1002
        lengths = [50, 150, 150, 250, 999, 1000, 1500, 2000, 2500, 3000]
        targets = np.ones((10, 1))
        scores = np.array([[1.0]] * 9 + [[0.0]])
        report = length_analysis(lengths, scores, targets)
        assert sum(report.counts) == 10
        hand = {0: 1, 1: 2, 2: 1, 9: 1, 10: 1, 15: 1, 20: 3}
        assert {i: c for i, c in enumerate(report.counts) if c} == hand
        assert report.accuracies[20] == pytest.approx(2 / 3)

    _gate(9, "1200-residue input tokenizes to 1002 tokens; length buckets match hand counts", 30.0, body)


def test_criterion_10_pipeline_determinism(tmp_path):
    def body():
        corpus = tmp_path / "corpus.tsv"
        write_corpus_tsv(random_corpus(40, seed=7, go_pool=9), corpus)
        model_cfg = tmp_path / "model.json"
        model_cfg.write_text(json.dumps({"num_layers": 1, "d_model": 16, "num_heads": 2,
                                         "d_ff": 32, "dropout": 0.0}))
        ft_cfg = tmp_path / "ft.json"
        ft_cfg.write_text(json.dumps({"epochs": 2, "batch_size": 8, "grad_accumulation": 1,
                                      "learning_rate": 1e-3}))
        outputs = []
        for run in ("a", "b"):
            base = tmp_path / run
            ds, sp, tr, pr, ev = (base / x for x in ("ds", "split", "train", "pred", "eval"))
            assert cli_main(["preprocess", str(corpus), "--top-k", "3", "--max-len", "50",
                             "--out", str(ds), "--quiet"]) == 0
            assert cli_main(["split", "--dataset", str(ds), "--kind", "random",
                             "--seed", "5", "--out", str(sp), "--quiet"]) == 0
            assert cli_main(["finetune", "--dataset", str(ds), "--split", str(sp),
                             "--config", str(ft_cfg), "--model-config", str(model_cfg),
                             "--seed", "5", "--out", str(tr), "--quiet"]) == 0
            assert cli_main(["predict", str(corpus),
                             "--bp", str(tr / "model_BP.ckpt"), "--mf", str(tr / "model_MF.ckpt"),
                             "--cc", str(tr / "model_CC.ckpt"), "--vocab-dir", str(ds),
                             "--out", str(pr), "--quiet"]) == 0
            assert cli_main(["evaluate", "--dataset", str(ds), "--split", str(sp),
                             "--model", str(tr / "model_{aspect}.ckpt"),
                             "--out", str(ev), "--quiet"]) == 0
            outputs.append((pr / "predictions.tsv", ev / "report.json"))
        (pred_a, rep_a), (pred_b, rep_b) = outputs
        assert pred_a.read_bytes() == pred_b.read_bytes()
        assert rep_a.read_bytes() == rep_b.read_bytes()

    _gate(10, "full pipeline run twice with one seed yields byte-identical outputs", 300.0, body)
