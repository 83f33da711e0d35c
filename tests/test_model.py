import functools
import json
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from protgo import autodiff as ad
from protgo import ingest
from protgo.checkpoint import (
    Checkpoint, CheckpointError, checkpoint_from_model, load_checkpoint, save_checkpoint,
)
from protgo.model import (
    FreezeMask, ModelConfig, ModelError, ProteinEncoder, pad_batch, parameter_groups,
)
from protgo.training import resume_state
from conftest import blas_threads
from oracles import encoder_layer_out_of_place, layer_norm_ref, score, score_one_at_a_time

DESK = ModelConfig(num_layers=2, d_model=8, num_heads=2, d_ff=16, max_len=16,
                   num_labels=4, dropout=0.0)


def _model(seed=0, **overrides):
    cfg = ModelConfig(**{**DESK.to_dict(), **overrides})
    return ProteinEncoder(cfg, seed=seed)


def _batch(*seqs, max_len=16):
    return pad_batch([ingest.tokenize(s, max_len) for s in seqs])


def _score_in_batches(model, tokens, batch_size):
    """The score oracle over consecutive padded batches of batch_size sequences."""
    return np.concatenate([score(model, tokens[i:i + batch_size]) for i in range(0, len(tokens), batch_size)])


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ModelError):
            ModelConfig(d_model=10, num_heads=3)

    def test_roundtrip_dict(self):
        assert ModelConfig.from_dict(DESK.to_dict()) == DESK


class TestEmbed:
    def test_zero_tables_give_zero(self):
        m = _model()
        for name in ("token_embedding.weight", "positional_embedding.weight", "segment_embedding.weight"):
            m.params[name].data[:] = 0.0
        ids, _ = _batch("MKV")
        assert np.all(m.embed(ids).data == 0.0)

    def test_segment_rows_beyond_zero_dormant(self):
        m = _model()
        ids, _ = _batch("MKV")
        before = m.embed(ids).data.copy()
        m.params["segment_embedding.weight"].data[1, :] = 99.0
        np.testing.assert_array_equal(m.embed(ids).data, before)

    def test_locality_of_lookup(self):
        m = _model()
        a, _ = _batch("MKVLA")
        b, _ = _batch("MKVRA")
        diff = m.embed(a).data[0] - m.embed(b).data[0]
        changed = np.any(diff != 0, axis=-1)
        assert changed.tolist() == [False, False, False, False, True, False, False]

    def test_position_overflow(self):
        m = _model()
        with pytest.raises(ModelError):
            m.embed(np.zeros((1, 19), dtype=int))


class TestEncoderLayer:
    def test_uniform_scores_give_uniform_attention(self):
        m = _model()
        # zero q/k makes all scores equal; with uniform attention and zero wo
        # the block reduces to the residual path
        for suffix in ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_w2"):
            m.params[f"layer_0.{suffix}"].data[:] = 0.0
        ids, mask = _batch("MKVL")
        x = m.embed(ids)
        out = m.encoder_layer(x, 0, mask)
        expected = layer_norm_ref(layer_norm_ref(x.data))
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_pad_token_value_does_not_leak(self):
        m = _model()
        ids, mask = _batch("MKVLAE", "MK")
        out1 = m.forward_classify(ids, mask).data
        ids2 = ids.copy()
        ids2[1, 5] = ingest.TOKEN_VOCAB["W"]  # PAD slot of the short row
        out2 = m.forward_classify(ids2, mask).data
        np.testing.assert_array_equal(out1, out2)

    def test_deterministic_forward(self):
        m = _model(seed=3)
        ids, mask = _batch("MKVL")
        a = m.encode(ids, mask).data
        b = m.encode(ids, mask).data
        np.testing.assert_array_equal(a, b)


def _random_tokens(rng, lengths, max_len):
    residues = list("ACDEFGHIKLMNPQRSTVWY")
    return [ingest.tokenize("".join(rng.choice(residues, size=int(n))), max_len) for n in lengths]


class TestAttentionInOneBuffer:
    """encoder_layer writes scale, key bias and softmax into q·kᵀ's buffer;
    the out-of-place layer it replaced must give the same bits."""

    @staticmethod
    def _run(model, ids, mask, head):
        """The head's output and the gradient of every parameter a backward
        through it reaches, at dropout 0.1 with a fixed dropout stream."""
        model.zero_grads()
        drop = np.random.default_rng(5)
        if head == "classify":
            logits = model.forward_classify(ids, mask, drop)
            targets = np.random.default_rng(6).integers(0, 2, size=logits.shape)
            loss = ad.bce_with_logits(logits, targets)
        else:
            logits = model.forward_mlm(ids, mask, drop)
            positions = np.flatnonzero(mask.ravel())[::3]
            loss = ad.nll_from_logits(logits, positions, ids.ravel()[positions])
        loss.backward()
        return logits.data, {k: t.grad for k, t in model.params.items() if t.grad is not None}

    @pytest.mark.parametrize("num_heads", [2, 4])  # d_h 16 and 8
    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("head", ["classify", "mlm"])
    def test_outputs_and_gradients_match_the_out_of_place_layer(self, monkeypatch, num_heads, padded, head):
        cfg = ModelConfig(num_layers=2, d_model=32, num_heads=num_heads, d_ff=48, max_len=64,
                          num_labels=6, dropout=0.1)
        lengths = [40, 23, 9] if padded else [40, 40, 40]
        ids, mask = pad_batch(_random_tokens(np.random.default_rng(2), lengths, 64))
        assert mask.all() != padded
        got, got_grads = self._run(ProteinEncoder(cfg, seed=8), ids, mask, head)
        monkeypatch.setattr(ProteinEncoder, "encoder_layer", encoder_layer_out_of_place)
        want, want_grads = self._run(ProteinEncoder(cfg, seed=8), ids, mask, head)
        assert np.array_equal(got, want)
        assert got_grads.keys() == want_grads.keys() >= {f"layer_{i}.wq" for i in range(2)}
        for name, grad in want_grads.items():
            assert np.array_equal(got_grads[name], grad), name

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_score_matches_the_out_of_place_layer(self, monkeypatch, batch_size):
        m = _model(seed=4, max_len=64, d_model=16, num_heads=2)
        rng = np.random.default_rng(9)
        tokens = _random_tokens(rng, rng.integers(1, 90, 30), 64)  # some truncated to 64
        got = _score_in_batches(m, tokens, batch_size)
        monkeypatch.setattr(ProteinEncoder, "encoder_layer", encoder_layer_out_of_place)
        assert np.array_equal(got, _score_in_batches(m, tokens, batch_size))

    # B=2, L=302, 2 heads: one B·H·L² float64 array is 2.9 MB, so the
    # activations of d16 layers are small beside it
    MEMORY_CFG = ModelConfig(num_layers=2, d_model=16, num_heads=2, d_ff=32, max_len=300,
                             num_labels=4, dropout=0.0)

    def _memory_batch(self):
        ids, mask = pad_batch(_random_tokens(np.random.default_rng(1), [300, 250], 300))
        B, L = ids.shape
        assert L == 302
        return ids, mask, B * self.MEMORY_CFG.num_heads * L * L * 8

    @staticmethod
    def _traced(forward):
        """forward()'s result, the bytes traced when it returns and the peak
        while it runs, both above what was traced before it."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = forward()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, kept - base, peak - base

    def test_graph_keeps_one_score_array_per_layer(self):
        m = ProteinEncoder(self.MEMORY_CFG, seed=0)
        ids, mask, score_bytes = self._memory_batch()
        logits, kept, _ = self._traced(lambda: m.forward_classify(ids, mask))
        assert logits._parents
        assert kept < (self.MEMORY_CFG.num_layers + 2) * score_bytes, kept / score_bytes

    def test_inference_peak_is_under_two_score_arrays(self):
        m = ProteinEncoder(self.MEMORY_CFG, seed=0)
        ids, mask, score_bytes = self._memory_batch()

        def forward():
            with ad.no_grad():
                return m.forward_classify(ids, mask)

        _, _, peak = self._traced(forward)
        assert peak < 2 * score_bytes, peak / score_bytes


class TestForwardClassify:
    def test_zero_classifier_gives_bias(self):
        m = _model()
        m.params["classifier.w"].data[:] = 0.0
        m.params["classifier.b"].data[:] = [1.0, -2.0, 0.5, 0.0]
        for seq in ("MKV", "AAAA", "WYWYWY"):
            ids, mask = _batch(seq)
            np.testing.assert_allclose(m.forward_classify(ids, mask).data[0],
                                       [1.0, -2.0, 0.5, 0.0], atol=1e-12)

    def test_pad_tail_irrelevant(self):
        m = _model()
        toks = ingest.tokenize("MKVLA", 16)
        short_ids, short_mask = pad_batch([toks])
        # same sequence padded out to a longer buffer
        long_ids = np.full((1, 12), ingest.PAD_ID, dtype=np.int64)
        long_ids[0, : len(toks.ids)] = toks.ids
        long_mask = np.zeros((1, 12))
        long_mask[0, : len(toks.ids)] = 1.0
        np.testing.assert_array_equal(m.forward_classify(short_ids, short_mask).data,
                                      m.forward_classify(long_ids, long_mask).data)

    def test_long_input_finite_and_fast(self):
        import time
        cfg = ModelConfig(num_layers=4, d_model=64, num_heads=4, d_ff=256,
                          max_len=1000, num_labels=100, dropout=0.0)
        m = ProteinEncoder(cfg, seed=1)
        ids, mask = _batch("A" * 1000, max_len=1000)
        start = time.time()
        logits = m.forward_classify(ids, mask)
        assert np.all(np.isfinite(logits.data))
        assert time.time() - start < 1.0


class TestScore:
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_matches_one_at_a_time_oracle(self, batch_size):
        m = _model(seed=4, max_len=64)
        rng = np.random.default_rng(batch_size)
        tokens = _random_tokens(rng, rng.integers(1, 90, size=200), 64)  # some truncated to 64
        got = _score_in_batches(m, tokens, batch_size)
        np.testing.assert_allclose(got, score_one_at_a_time(m, tokens), rtol=0, atol=1e-9)

    def test_one_sequence_gives_the_oracle_bits(self):
        m = _model(seed=4, max_len=64)
        tokens = _random_tokens(np.random.default_rng(3), [1, 17, 64, 80], 64)
        got = np.concatenate([score(m, [t]) for t in tokens])
        assert np.array_equal(got, score_one_at_a_time(m, tokens))

    def test_gives_back_blas_threads_and_joins_workers(self, two_blas_threads, split_pool):
        """A lone score runs on the calling thread, with OpenBLAS at one
        thread, and starts no worker."""
        m = _model(seed=4)
        tokens = _random_tokens(np.random.default_rng(0), [5, 9, 14, 3], 16)
        before = threading.active_count(), blas_threads()
        expected = score_one_at_a_time(m, tokens)
        inside = []
        encoder_layer = m.encoder_layer

        def layer(*args):
            inside.append(blas_threads())
            return encoder_layer(*args)

        m.encoder_layer = layer
        np.testing.assert_allclose(score(m, tokens), expected, rtol=0, atol=1e-9)
        assert inside and set(inside) == {1 if ad._openblas() else None}
        assert (threading.active_count(), blas_threads()) == before


class TestForwardMlm:
    def test_copying_weights_gives_identical_logits(self):
        a = _model(seed=1)
        b = _model(seed=2)
        for k in a.params:
            b.params[k].data[:] = a.params[k].data
        ids, mask = _batch("MKVLAE")
        np.testing.assert_array_equal(a.forward_mlm(ids, mask).data,
                                      b.forward_mlm(ids, mask).data)

    def test_untrained_entropy_near_uniform(self):
        entropies = []
        for seed in range(100):
            m = _model(seed=seed)
            ids, mask = _batch("MKVLAEGH")
            logits = m.forward_mlm(ids, mask).data[0]
            z = logits - logits.max(axis=-1, keepdims=True)
            p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
            entropies.append(float(-(p * np.log(p)).sum(axis=-1).mean()))
        mean_entropy = np.mean(entropies)
        assert abs(mean_entropy - np.log(30)) < 0.1 * np.log(30)


class TestFreeze:
    def test_groups_enumeration(self):
        groups = parameter_groups(DESK)
        assert groups[:3] == ["token_embedding", "positional_embedding", "segment_embedding"]
        assert "layer_0" in groups and "layer_1" in groups
        assert groups[-3:] == ["pooler", "classifier", "mlm_head"]

    def test_classifier_cannot_be_frozen_for_finetune(self):
        m = _model()
        mask = FreezeMask.none(DESK)
        mask.frozen["classifier"] = True
        with pytest.raises(ModelError):
            m.apply_freeze(mask, mode="finetune")

    def test_default_mask_freezes_embeddings_and_lower_half(self):
        mask = FreezeMask.default_finetune(DESK)
        assert mask.is_frozen("token_embedding")
        assert mask.is_frozen("layer_0")
        assert not mask.is_frozen("layer_1")
        assert not mask.is_frozen("classifier")

    def test_frozen_params_lose_requires_grad(self):
        m = _model()
        m.apply_freeze(FreezeMask.default_finetune(DESK))
        assert not m.params["token_embedding.weight"].requires_grad
        assert m.params["classifier.w"].requires_grad


def _set_first_array(**fields):
    return lambda header: header["arrays"][0].update(fields)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        m = _model(seed=5)
        path = tmp_path / "m.ckpt"
        ck = checkpoint_from_model(m, FreezeMask.default_finetune(DESK),
                                   optimizer_state={"step": 7,
                                                    "m": {k: v.data * 0.1 for k, v in m.params.items()},
                                                    "v": {k: v.data * 0.2 for k, v in m.params.items()}},
                                   rng_state={"seed": 3, "epochs_completed": 2})
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back.config == DESK
        assert back.freeze_mask.frozen == ck.freeze_mask.frozen
        assert back.rng_state == {"seed": 3, "epochs_completed": 2}
        assert back.optimizer_state["step"] == 7
        for k in m.params:
            np.testing.assert_array_equal(back.params[k], m.params[k].data)
            np.testing.assert_array_equal(back.optimizer_state["m"][k], m.params[k].data * 0.1)

    def test_truncated_file(self, tmp_path):
        m = _model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(checkpoint_from_model(m, FreezeMask.none(DESK)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, half_writes):
        path = tmp_path / "m.ckpt"
        save_checkpoint(checkpoint_from_model(_model(seed=1), FreezeMask.none(DESK)), path)
        before = path.read_bytes()
        half_writes()
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(checkpoint_from_model(_model(seed=2), FreezeMask.none(DESK)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @staticmethod
    def _with_header(tmp_path, edit):
        """A saved checkpoint whose JSON header went through `edit`; the payload stays."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(checkpoint_from_model(_model(), FreezeMask.none(DESK)), path)
        blob = path.read_bytes()
        n = struct.unpack("<I", blob[4:8])[0]
        header = json.loads(blob[8:8 + n])
        edit(header)
        raw = json.dumps(header).encode()
        path.write_bytes(blob[:4] + struct.pack("<I", len(raw)) + raw + blob[8 + n:])
        return path

    @pytest.mark.parametrize("edit, match", [
        (lambda header: header.update(arrays=5), "arrays is not a list"),
        (_set_first_array(shape=[2, -3]), "corrupt checkpoint array entry"),
        (_set_first_array(dtype="|O"), "has dtype '|O'"),
        (_set_first_array(dtype="<U2"), "has dtype '<U2'"),
    ], ids=["arrays-not-a-list", "negative-dimension", "object-dtype", "string-dtype"])
    def test_malformed_array_table_names_the_file(self, tmp_path, edit, match):
        path = self._with_header(tmp_path, edit)
        with pytest.raises(CheckpointError, match=match) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_config_mismatch_names_array(self, tmp_path):
        m = _model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(checkpoint_from_model(m, FreezeMask.none(DESK)), path)
        back = load_checkpoint(path)
        smaller = ModelConfig(**{**DESK.to_dict(), "d_model": 4, "d_ff": 8})
        with pytest.raises(ModelError, match="token_embedding.weight"):
            ProteinEncoder(smaller, params=back.params)


@functools.cache
def _fuzz_blob():
    """A small saved checkpoint with Adam moments and RNG bookkeeping, and its header's length."""
    cfg = ModelConfig(num_layers=1, d_model=2, num_heads=1, d_ff=2, max_len=2, num_labels=2, dropout=0.0)
    m = ProteinEncoder(cfg, seed=1)
    ck = checkpoint_from_model(m, FreezeMask.default_finetune(cfg),
                               optimizer_state={"step": 3, "m": {k: v.data * 0.1 for k, v in m.params.items()},
                                                "v": {k: v.data ** 2 for k, v in m.params.items()}},
                               rng_state={"seed": 5, "epochs_completed": 1})
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(ck, Path(tmp) / "m.ckpt")
        blob = (Path(tmp) / "m.ckpt").read_bytes()
    return blob, struct.unpack("<I", blob[4:8])[0]


def _resume_from(blob):
    """load_checkpoint, to_model and resume_state on `blob` written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(blob)
        try:
            ckpt = load_checkpoint(path)
            resume_state(ckpt, ckpt.to_model())
        except (CheckpointError, ModelError):
            pass


FUZZ = settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestCheckpointFuzz:
    """A damaged checkpoint loads, or fails with a CheckpointError or a
    ModelError, which the CLI reports in one line."""

    @FUZZ
    @given(st.data())
    def test_truncated_at_any_byte(self, data):
        blob, _ = _fuzz_blob()
        _resume_from(blob[:data.draw(st.integers(0, len(blob) - 1))])

    @FUZZ
    @given(st.data())
    def test_flipped_bits(self, data):
        blob, header_len = _fuzz_blob()
        blob = bytearray(blob)
        # anywhere in the file, most of them in its magic, length and header
        at = st.one_of(st.integers(0, 8 * (8 + header_len) - 1), st.integers(0, 8 * len(blob) - 1))
        for bit in data.draw(st.lists(at, min_size=1, max_size=6)):
            blob[bit // 8] ^= 1 << (bit % 8)
        _resume_from(bytes(blob))

    @FUZZ
    @given(st.data())
    def test_replaced_header_bytes(self, data):
        blob, header_len = _fuzz_blob()
        blob = bytearray(blob)
        edits = data.draw(st.lists(st.tuples(st.integers(8, 8 + header_len - 1),
                                             st.sampled_from(b'0123456789eE.-+"[]{},: xnatrue')),
                                   min_size=1, max_size=4))
        for at, byte in edits:
            blob[at] = byte
        _resume_from(bytes(blob))
