import threading

import numpy as np
import pytest

from protgo import autodiff as ad
from protgo import ingest, training
from protgo.checkpoint import load_checkpoint, save_checkpoint
from protgo.model import FreezeMask, ModelConfig, ProteinEncoder
from conftest import blas_threads
from protgo.training import (
    AdamState, FinetuneConfig, PretrainConfig, TrainingError, adam_step,
    config_from_json, finetune_loss, mask_tokens, mlm_loss, resume_state, train_loop,
)

TINY = ModelConfig(num_layers=1, d_model=8, num_heads=2, d_ff=16, max_len=16,
                   num_labels=3, dropout=0.0)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def _finetune_data(n, seed=0, num_labels=3, length=(5, 12), max_len=16):
    rng = _rng(seed)
    data = []
    for _ in range(n):
        L = int(rng.integers(*length))
        seq = "".join(rng.choice(list("ACDEFGHIKL"), size=L))
        bits = (rng.random(num_labels) < 0.5).astype(np.int8)
        data.append((ingest.tokenize(seq, max_len), bits))
    return data


class TestMaskTokens:
    def test_p_near_one_masks_all_residues(self):
        toks = ingest.tokenize("MKVLAE", 16)
        masked, targets = mask_tokens(toks, 0.999999, _rng(0))
        assert masked.ids[0] == ingest.CLS_ID and masked.ids[-1] == ingest.SEP_ID
        assert all(t == ingest.MASK_ID for t in masked.ids[1:-1])
        assert len(targets) == 6
        assert [tid for _, tid in targets] == toks.ids[1:-1]

    def test_binomial_fraction(self):
        toks = ingest.tokenize("A" * 10000, 10000)
        masked, targets = mask_tokens(toks, 0.15, _rng(1))
        frac = len(targets) / 10000
        assert 0.14 <= frac <= 0.16

    def test_forced_single_mask(self):
        toks = ingest.tokenize("MK", 16)
        # small p: keep drawing until chance selects nothing, fallback kicks in
        for seed in range(50):
            masked, targets = mask_tokens(toks, 1e-9, _rng(seed))
            assert len(targets) == 1
            assert masked.ids[targets[0][0]] == ingest.MASK_ID

    def test_original_untouched(self):
        toks = ingest.tokenize("MKVLAE", 16)
        before = list(toks.ids)
        mask_tokens(toks, 0.5, _rng(2))
        assert toks.ids == before


class TestMlmLoss:
    def test_uniform_logits_give_log_vocab(self):
        logits = ad.parameter(np.zeros((1, 5, 30)))
        loss = mlm_loss(logits, [[(1, 7), (3, 9)]])
        assert loss.item() == pytest.approx(np.log(30), abs=1e-9)

    def test_confident_spike_drives_loss_to_zero(self):
        z = np.zeros((1, 4, 30))
        z[0, 2, 11] = 60.0
        loss = mlm_loss(ad.parameter(z), [[(2, 11)]])
        assert loss.item() < 1e-12

    def test_two_targets_hand_mean(self):
        z = np.zeros((1, 4, 30))
        z[0, 1, :3] = [2.0, 1.0, 0.0]
        z[0, 2, :2] = [0.5, -0.5]

        def nll(row, true):
            e = np.exp(row - row.max())
            return -np.log(e[true] / e.sum())

        expected = (nll(z[0, 1], 0) + nll(z[0, 2], 1)) / 2
        loss = mlm_loss(ad.parameter(z), [[(1, 0), (2, 1)]])
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_empty_targets_error(self):
        with pytest.raises(TrainingError):
            mlm_loss(ad.parameter(np.zeros((1, 4, 30))), [[]])


class TestFinetuneLoss:
    def test_perfect_prediction_limit(self):
        y = np.array([[1.0, 0.0]])
        loss = finetune_loss(ad.parameter([[60.0, -60.0]]), y)
        assert loss.item() < 1e-12

    def test_zero_logits_give_log2(self):
        y = np.array([[1.0, 0.0, 1.0]])
        loss = finetune_loss(ad.parameter([[0.0, 0.0, 0.0]]), y)
        assert loss.item() == pytest.approx(np.log(2), abs=1e-12)

    def test_hand_case(self):
        # sigma(z) = [0.9, 0.2], y = [1, 0]
        z = [[np.log(9.0), np.log(0.25)]]
        expected = -(np.log(0.9) + np.log(0.8)) / 2
        loss = finetune_loss(ad.parameter(z), np.array([[1.0, 0.0]]))
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.1643, abs=5e-5)

    def test_shape_mismatch(self):
        with pytest.raises(TrainingError):
            finetune_loss(ad.parameter([[0.0, 0.0]]), np.array([[1.0, 0.0, 1.0]]))


class TestAdam:
    def _single(self, value, grad):
        t = ad.parameter(np.array(value))
        t.grad = np.array(grad)
        params = {"p.w": t}
        return t, params, AdamState(params)

    def test_first_step_magnitude_is_lr(self):
        t, params, state = self._single([1.0, -2.0], [0.3, -0.7])
        adam_step(params, state, lr=0.01)
        update = np.array([1.0, -2.0]) - t.data
        np.testing.assert_allclose(np.abs(update), 0.01, rtol=1e-6)
        assert np.sign(update[0]) == 1.0 and np.sign(update[1]) == -1.0

    def test_zero_gradient_fixed_point(self):
        t, params, state = self._single([1.0, -2.0], [0.0, 0.0])
        adam_step(params, state, lr=0.01)
        np.testing.assert_array_equal(t.data, [1.0, -2.0])

    def test_decoupled_decay_shrinks(self):
        t, params, state = self._single([1.0, -2.0], [0.0, 0.0])
        for _ in range(3):
            adam_step(params, state, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(t.data, np.array([1.0, -2.0]) * (1 - 0.1 * 0.5) ** 3, rtol=1e-12)

    def test_non_finite_gradient_names_group(self):
        t, params, state = self._single([1.0], [np.nan])
        with pytest.raises(TrainingError, match="'p'"):
            adam_step(params, state, lr=0.01)

    def test_frozen_params_skipped(self):
        t, params, state = self._single([1.0], [5.0])
        t.requires_grad = False
        adam_step(params, state, lr=0.01)
        np.testing.assert_array_equal(t.data, [1.0])

    def test_returns_the_global_norm_of_the_gradients_it_applied(self):
        params = {"a.w": ad.parameter(np.zeros(2)), "b.w": ad.parameter(np.zeros((1, 2))),
                  "c.w": ad.parameter(np.zeros(1)), "d.w": ad.parameter(np.zeros(1))}
        params["a.w"].grad = np.array([3.0, 0.0])
        params["b.w"].grad = np.array([[0.0, 4.0]])
        params["c.w"].grad = np.array([12.0])
        params["c.w"].requires_grad = False  # frozen: not applied, not counted
        assert adam_step(params, AdamState(params), lr=0.01) == 5.0


class TestConfigs:
    def test_mask_probability_bounds(self):
        with pytest.raises(TrainingError, match="mask_probability"):
            PretrainConfig(epochs=1, batch_size=4, mask_probability=1.5)

    def test_unknown_field_rejected(self):
        with pytest.raises(TrainingError, match="unknown config field"):
            config_from_json({"epochs": 1, "batch_size": 4, "typo_field": 3}, "finetune")

    def test_json_roundtrip(self):
        cfg = config_from_json({"epochs": 2, "batch_size": 4, "learning_rate": 1e-3}, "finetune")
        assert isinstance(cfg, FinetuneConfig)
        assert cfg.grad_accumulation == 32


class TestTrainLoop:
    def test_grad_accumulation_equivalence(self):
        data = _finetune_data(64, seed=3)
        runs = {}
        for accum, micro in ((4, 8), (1, 32)):
            model = ProteinEncoder(TINY, seed=9)
            cfg = FinetuneConfig(epochs=2, batch_size=micro, grad_accumulation=accum,
                                 learning_rate=1e-3, seed=5)
            train_loop(model, data, cfg, "finetune")
            runs[accum] = {k: v.data.copy() for k, v in model.params.items()}
        for k in runs[4]:
            np.testing.assert_allclose(runs[4][k], runs[1][k], atol=1e-10)

    def test_same_seed_same_loss_records(self):
        data = _finetune_data(16, seed=1)
        traces = []
        for _ in range(2):
            model = ProteinEncoder(TINY, seed=2)
            cfg = FinetuneConfig(epochs=3, batch_size=4, grad_accumulation=1, seed=7)
            _, recs = train_loop(model, data, cfg, "finetune")
            traces.append([(r.step, r.epoch, r.loss) for r in recs])
        assert traces[0] == traces[1]

    def test_loss_positive_and_steps_increasing(self):
        data = _finetune_data(16, seed=1)
        model = ProteinEncoder(TINY, seed=2)
        cfg = FinetuneConfig(epochs=2, batch_size=4, grad_accumulation=2, seed=7)
        _, recs = train_loop(model, data, cfg, "finetune")
        steps = [r.step for r in recs]
        assert steps == sorted(set(steps))
        assert all(r.loss >= 0 for r in recs)

    def test_frozen_groups_bitwise_constant(self):
        data = _finetune_data(16, seed=4)
        model = ProteinEncoder(TINY, seed=11)
        mask = FreezeMask.default_finetune(TINY)
        before = {k: v.data.copy() for k, v in model.params.items()}
        cfg = FinetuneConfig(epochs=4, batch_size=4, grad_accumulation=1, seed=3)
        train_loop(model, data, cfg, "finetune", freeze_mask=mask)
        from protgo.model import group_of
        changed_frozen = [k for k in before
                          if mask.is_frozen(group_of(k))
                          and not np.array_equal(before[k], model.params[k].data)]
        assert changed_frozen == []
        assert not np.array_equal(before["classifier.w"], model.params["classifier.w"].data)

    def test_monotone_overfit_linearly_separable(self):
        # 8 samples whose labels depend on a single residue's presence
        data = []
        for i, seq in enumerate(["AAAA", "AAAC", "ACAC", "CCCC", "CACA", "AACC", "CCAA", "CAAA"]):
            bits = np.array([1 if "C" in seq else 0, 0, 1], dtype=np.int8)
            data.append((ingest.tokenize(seq, 16), bits))
        model = ProteinEncoder(TINY, seed=1)
        cfg = FinetuneConfig(epochs=30, batch_size=8, grad_accumulation=1,
                             learning_rate=3e-3, seed=0)
        _, recs = train_loop(model, data, cfg, "finetune")
        losses = [r.loss for r in recs]
        tail = losses[3:]
        assert all(tail[i + 1] <= tail[i] + 1e-12 for i in range(len(tail) - 1))
        assert losses[-1] < losses[0]

    def test_pretrain_runs_and_loss_starts_near_log_vocab(self):
        rng = _rng(8)
        seqs = ["".join(rng.choice(list("ACDE"), size=12)) for _ in range(24)]
        data = [ingest.tokenize(s, 16) for s in seqs]
        model = ProteinEncoder(TINY, seed=4)
        cfg = PretrainConfig(epochs=2, batch_size=8, seed=6, learning_rate=1e-3)
        _, recs = train_loop(model, data, cfg, "pretrain")
        assert abs(recs[0].loss - np.log(30)) < 0.05

    def test_resume_reproduces_uninterrupted_trace(self, tmp_path):
        data = _finetune_data(20, seed=5)
        cfg = FinetuneConfig(epochs=4, batch_size=5, grad_accumulation=1, seed=13)

        model_a = ProteinEncoder(TINY, seed=21)
        _, full_trace = train_loop(model_a, data, cfg, "finetune")

        model_b = ProteinEncoder(TINY, seed=21)
        cfg_half = FinetuneConfig(epochs=2, batch_size=5, grad_accumulation=1, seed=13)
        ckpt, first_half = train_loop(model_b, data, cfg_half, "finetune",
                                      checkpoint_path=tmp_path / "half.ckpt")
        save_checkpoint(ckpt, tmp_path / "half.ckpt")

        loaded = load_checkpoint(tmp_path / "half.ckpt")
        model_c = loaded.to_model()
        start_epoch, adam_state = resume_state(loaded, model_c)
        assert start_epoch == 2
        _, second_half = train_loop(model_c, data, cfg, "finetune",
                                    start_epoch=start_epoch, adam_state=adam_state)

        resumed = [(r.step, r.epoch, r.loss) for r in first_half + second_half]
        uninterrupted = [(r.step, r.epoch, r.loss) for r in full_trace]
        assert resumed == uninterrupted
        for k in model_a.params:
            np.testing.assert_array_equal(model_a.params[k].data, model_c.params[k].data)

    @pytest.mark.parametrize("batch_size, grad_accumulation", [(4, 1), (2, 2)])
    def test_learning_rate_warms_up_over_sequences_across_a_resume(self, monkeypatch, tmp_path,
                                                                   batch_size, grad_accumulation):
        """The rate applied at Adam step s (from 0) is lr * min(1, (s + 1) *
        batch_size * grad_accumulation / WARMUP_SEQUENCES), counted on the
        optimizer state, so a run resumed into more epochs goes on warming up
        where it stopped, and accumulating micro-batches does not stretch it
        over more sequences; the loss log holds it."""
        monkeypatch.setattr(training, "WARMUP_SEQUENCES", 40)
        applied = []

        def recording_adam_step(params, state, lr, **kwargs):
            applied.append((state.step, lr))
            return adam_step(params, state, lr, **kwargs)

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        data = _finetune_data(16, seed=1)
        cfg = FinetuneConfig(epochs=2, batch_size=batch_size, grad_accumulation=grad_accumulation,
                             learning_rate=1e-3, seed=7)
        train_loop(ProteinEncoder(TINY, seed=2), data, cfg, "finetune", checkpoint_path=tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        model = loaded.to_model()
        start_epoch, state = resume_state(loaded, model)
        with open(tmp_path / "loss.csv", "w", encoding="utf-8") as log:
            train_loop(model, data, FinetuneConfig(**{**vars(cfg), "epochs": 3}), "finetune",
                       loss_log=log, start_epoch=start_epoch, adam_state=state)
        warmed = [1e-3 * min(1.0, (s + 1) * 4 / 40) for s in range(12)]  # 4 sequences a step, 4 steps an epoch
        assert applied == list(enumerate(warmed))
        rows = [line.split(",") for line in (tmp_path / "loss.csv").read_text().splitlines()]
        assert [r[4] for r in rows] == [f"{lr:.10g}" for lr in warmed[8:]]
        assert all(np.isfinite(float(r[5])) and float(r[5]) > 0 for r in rows)

    def test_non_finite_loss_aborts(self):
        data = _finetune_data(8, seed=2)
        model = ProteinEncoder(TINY, seed=1)
        model.params["classifier.b"].data[:] = np.inf
        cfg = FinetuneConfig(epochs=1, batch_size=4, grad_accumulation=1, seed=0)
        with pytest.raises(TrainingError, match="non-finite loss"):
            train_loop(model, data, cfg, "finetune")

    def test_empty_data_rejected(self):
        model = ProteinEncoder(TINY, seed=1)
        cfg = FinetuneConfig(epochs=1, batch_size=4, seed=0)
        with pytest.raises(TrainingError):
            train_loop(model, [], cfg, "finetune")


class TestCpuPool:
    @pytest.mark.parametrize("end", ["return", "non-finite loss", "failed write"])
    def test_gives_back_blas_threads_and_joins_workers(
            self, tmp_path, monkeypatch, half_writes, two_blas_threads, split_pool, end):
        model = ProteinEncoder(TINY, seed=1)
        cfg = FinetuneConfig(epochs=1, batch_size=4, grad_accumulation=1, seed=0)
        before = threading.active_count(), blas_threads()
        inside = []

        def finetune_loss(logits, targets):
            inside.append((threading.active_count(), blas_threads()))
            return training_loss(logits, targets)

        training_loss = training.finetune_loss
        monkeypatch.setattr(training, "finetune_loss", finetune_loss)
        if end == "non-finite loss":
            model.params["classifier.b"].data[:] = np.inf
        if end == "failed write":
            half_writes()
        raised = {"return": (), "non-finite loss": TrainingError, "failed write": OSError}[end]
        try:
            train_loop(model, _finetune_data(8, seed=2), cfg, "finetune", checkpoint_path=tmp_path / "m.ckpt")
        except raised:
            pass
        else:
            assert end == "return"
        assert (threading.active_count(), blas_threads()) == before
        assert inside and all(n > before[0] for n, _ in inside)
        assert {blas for _, blas in inside} == {1 if ad._openblas() else None}


def _padded(lengths, part):
    return len(part) * max(lengths[i] for i in part)


class TestChunks:
    def test_the_benchmark_batch(self):
        shuffled = [430, 252, 502, 323, 287, 466, 394, 359]  # tokens of the train workload's 250-500 residues
        got = training.chunks(shuffled, training.TOKEN_BUDGET)
        assert [[shuffled[i] for i in part] for part in got] == [[252, 287, 323], [359, 394], [430, 466], [502]]

    def test_a_batch_that_fits_is_one_chunk_in_its_own_order(self):
        assert training.chunks([22, 9, 15, 22], 88) == [[0, 1, 2, 3]]
        assert training.chunks([34] * 32, training.TOKEN_BUDGET) == [list(range(32))]  # criterion 4's batch

    def test_equal_lengths_keep_their_order(self):
        assert training.chunks([7, 5, 7, 5, 7], 15) == [[1, 3], [0, 2], [4]]

    @pytest.mark.parametrize("seed", range(20))
    def test_every_member_once_and_no_chunk_over_the_budget(self, seed):
        rng = _rng(seed)
        lengths = rng.integers(3, 120, size=int(rng.integers(1, 40))).tolist()
        budget = int(rng.integers(20, 400))
        got = training.chunks(lengths, budget)
        assert sorted(i for part in got for i in part) == list(range(len(lengths)))
        assert all(_padded(lengths, part) <= budget for part in got if len(part) > 1)
        flat = [i for part in got for i in part]
        if len(got) > 1:  # cut chunks hold the members sorted by length, ties in input order
            assert flat == sorted(range(len(lengths)), key=lambda i: lengths[i])


CHUNKED = ModelConfig(num_layers=2, d_model=8, num_heads=2, d_ff=16, max_len=200, num_labels=3, dropout=0.1)


def _step_grads(monkeypatch, model, data, cfg, mode, freeze_mask, budget):
    """Loss and gradients of each optimizer step of train_loop, with chunks of at most `budget` tokens."""
    monkeypatch.setattr(training, "TOKEN_BUDGET", budget)
    seen = []

    def adam_step(params, state, lr, **kwargs):
        seen.append({k: t.grad.copy() for k, t in params.items() if t.grad is not None})
        return optimizer_step(params, state, lr, **kwargs)

    optimizer_step = training.adam_step
    monkeypatch.setattr(training, "adam_step", adam_step)
    _, recs = train_loop(model, data, cfg, mode, freeze_mask=freeze_mask)
    monkeypatch.setattr(training, "adam_step", optimizer_step)
    return [r.loss for r in recs], seen


class TestChunkedSteps:
    @pytest.mark.parametrize("mode", ["finetune", "pretrain"])
    @pytest.mark.parametrize("freeze", ["none", "default_finetune"])
    def test_chunks_match_one_chunk(self, monkeypatch, mode, freeze):
        pairs = _finetune_data(12, seed=6, length=(3, 14))
        assert len(training.chunks([len(seq.ids) for seq, _ in pairs], 40)) > 2
        data = pairs if mode == "finetune" else [seq for seq, _ in pairs]
        cfg = (FinetuneConfig(epochs=1, batch_size=12, grad_accumulation=2, seed=3) if mode == "finetune"
               else PretrainConfig(epochs=1, batch_size=12, grad_accumulation=2, seed=3))
        runs = []
        for budget in (10 ** 9, 40):  # one chunk; then chunks of 2-5 members
            model = ProteinEncoder(TINY, seed=4)
            runs.append(_step_grads(monkeypatch, model, data, cfg, mode, getattr(FreezeMask, freeze)(TINY), budget))
        (one_loss, one_grads), (cut_loss, cut_grads) = runs
        np.testing.assert_allclose(cut_loss, one_loss, rtol=0, atol=1e-10)
        assert len(one_grads) == len(cut_grads) == 1
        assert one_grads[0].keys() == cut_grads[0].keys() and one_grads[0]
        for k, g in one_grads[0].items():
            np.testing.assert_allclose(cut_grads[0][k], g, rtol=0, atol=1e-10, err_msg=k)

    @pytest.mark.parametrize("split_pool", [1, 2, 3], indirect=True)
    def test_the_bits_do_not_depend_on_the_worker_count(self, monkeypatch, split_pool):
        data = _finetune_data(10, seed=8, length=(40, 120), max_len=200)
        cfg = FinetuneConfig(epochs=1, batch_size=10, grad_accumulation=1, seed=5)
        assert len(training.chunks([len(seq.ids) for seq, _ in data], 300)) > 1

        def step(budget):
            model = ProteinEncoder(CHUNKED, seed=2)
            losses, grads = _step_grads(monkeypatch, model, data, cfg, "finetune", None, budget)
            return losses, grads, {k: t.data for k, t in model.params.items()}

        budgets = (300, 10 ** 9)  # chunks; then one chunk, which runs on a worker too
        got = [step(budget) for budget in budgets]
        monkeypatch.setattr(ad, "_cpus", lambda: 1)
        want = [step(budget) for budget in budgets]
        for g, w in zip(got, want):
            assert g[0] == w[0]
            for a, b in ((g[1][0], w[1][0]), (g[2], w[2])):
                assert a.keys() == b.keys()
                assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_a_chunk_that_raises_on_a_worker_propagates(self, monkeypatch, two_blas_threads, split_pool):
        monkeypatch.setattr(training, "TOKEN_BUDGET", 40)
        data = _finetune_data(12, seed=6, length=(3, 14))
        cfg = FinetuneConfig(epochs=1, batch_size=12, grad_accumulation=1, seed=3)
        before = threading.active_count(), blas_threads()
        workers = set()

        def finetune_loss(logits, targets):
            workers.add(threading.get_ident())
            if threading.current_thread() is not threading.main_thread():
                raise ad.ShapeError("a chunk failed")
            return training_loss(logits, targets)

        training_loss = training.finetune_loss
        monkeypatch.setattr(training, "finetune_loss", finetune_loss)
        with pytest.raises(ad.ShapeError, match="a chunk failed"):
            train_loop(ProteinEncoder(TINY, seed=1), data, cfg, "finetune")
        assert workers and threading.main_thread().ident not in workers
        assert (threading.active_count(), blas_threads()) == before

    def test_resume_with_dropout_and_chunks_gives_the_same_bytes(self, tmp_path):
        """2 epochs, dropout 0.1, two micro-batches a step, each batch above the
        budget: stopped after epoch 1 and resumed, the checkpoint and the loss
        log equal those of the run that did not stop."""
        data = _finetune_data(32, seed=9, length=(150, 199), max_len=200)
        cfg = FinetuneConfig(epochs=2, batch_size=8, grad_accumulation=2, seed=11)
        assert 8 * (150 + 2) > training.TOKEN_BUDGET

        def run(path, epochs, start_epoch=0, model=None, adam_state=None):
            with open(path.with_suffix(".csv"), "a", encoding="utf-8") as log:
                train_loop(model or ProteinEncoder(CHUNKED, seed=3), data,
                           FinetuneConfig(**{**vars(cfg), "epochs": epochs}), "finetune",
                           checkpoint_path=path, loss_log=log, start_epoch=start_epoch, adam_state=adam_state)

        run(tmp_path / "full.ckpt", 2)
        run(tmp_path / "cut.ckpt", 1)
        loaded = load_checkpoint(tmp_path / "cut.ckpt")
        model = loaded.to_model()
        start_epoch, adam_state = resume_state(loaded, model)
        assert start_epoch == 1
        run(tmp_path / "cut.ckpt", 2, start_epoch, model, adam_state)
        for suffix in (".ckpt", ".csv"):
            assert (tmp_path / f"cut{suffix}").read_bytes() == (tmp_path / f"full{suffix}").read_bytes()
        assert len((tmp_path / "full.csv").read_text().splitlines()) == 4  # 2 steps an epoch
