"""Transformer encoder for protein sequences with two heads.

One model instance serves a single GO aspect. The forward path follows a
post-norm BERT-style layout: summed token/positional/segment embeddings,
stacked self-attention blocks with residual connections, mean pooling over
non-PAD positions, then either a label classifier or a per-position
vocabulary projection for masked-token pretraining.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .ingest import PAD_ID, VOCAB_SIZE


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 4
    d_model: int = 64
    num_heads: int = 4
    d_ff: int = 256
    vocab_size: int = VOCAB_SIZE
    max_len: int = 1000
    num_labels: int = 100
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("num_layers", "d_model", "num_heads", "d_ff"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ModelError(f"{name} must be a positive integer, got {value!r}")
        if not isinstance(self.dropout, (int, float)) or not 0.0 <= self.dropout < 1.0:
            raise ModelError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if self.d_model % self.num_heads != 0:
            raise ModelError(f"d_model {self.d_model} not divisible by num_heads {self.num_heads}")
        if self.max_len < 1:
            raise ModelError("max_len must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class FreezeMask:
    """Per-parameter-group freeze flags; frozen groups never receive updates."""

    frozen: dict = field(default_factory=dict)

    def is_frozen(self, group: str) -> bool:
        return bool(self.frozen.get(group, False))

    @classmethod
    def none(cls, config: ModelConfig) -> "FreezeMask":
        return cls({g: False for g in parameter_groups(config)})

    @classmethod
    def default_finetune(cls, config: ModelConfig) -> "FreezeMask":
        """Freeze the three embedding tables and the lower half of the stack."""
        mask = {g: False for g in parameter_groups(config)}
        for g in ("token_embedding", "positional_embedding", "segment_embedding"):
            mask[g] = True
        for i in range(config.num_layers // 2):
            mask[f"layer_{i}"] = True
        return cls(mask)


def parameter_groups(config: ModelConfig) -> list:
    groups = ["token_embedding", "positional_embedding", "segment_embedding"]
    groups += [f"layer_{i}" for i in range(config.num_layers)]
    groups += ["pooler", "classifier", "mlm_head"]
    return groups


def group_of(name: str) -> str:
    return name.split(".")[0]


def _param_shapes(c: ModelConfig) -> dict:
    shapes = {
        "token_embedding.weight": (c.vocab_size, c.d_model),
        "positional_embedding.weight": (c.max_len + 2, c.d_model),
        "segment_embedding.weight": (2, c.d_model),
        "pooler.w": (c.d_model, c.d_model),
        "pooler.b": (c.d_model,),
        "classifier.w": (c.d_model, c.num_labels),
        "classifier.b": (c.num_labels,),
        "mlm_head.w": (c.d_model, c.vocab_size),
        "mlm_head.b": (c.vocab_size,),
    }
    for i in range(c.num_layers):
        p = f"layer_{i}."
        shapes[p + "wq"] = (c.d_model, c.d_model)
        shapes[p + "wk"] = (c.d_model, c.d_model)
        shapes[p + "wv"] = (c.d_model, c.d_model)
        shapes[p + "wo"] = (c.d_model, c.d_model)
        shapes[p + "bq"] = (c.d_model,)
        shapes[p + "bk"] = (c.d_model,)
        shapes[p + "bv"] = (c.d_model,)
        shapes[p + "bo"] = (c.d_model,)
        shapes[p + "ffn_w1"] = (c.d_model, c.d_ff)
        shapes[p + "ffn_b1"] = (c.d_ff,)
        shapes[p + "ffn_w2"] = (c.d_ff, c.d_model)
        shapes[p + "ffn_b2"] = (c.d_model,)
        shapes[p + "ln1_gamma"] = (c.d_model,)
        shapes[p + "ln1_beta"] = (c.d_model,)
        shapes[p + "ln2_gamma"] = (c.d_model,)
        shapes[p + "ln2_beta"] = (c.d_model,)
    return shapes


def check_params(config: ModelConfig, params: dict) -> None:
    """ModelError unless `params` (name -> array) holds exactly the
    parameters the config implies, each in its shape."""
    expected = _param_shapes(config)
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise ModelError(f"parameter set mismatch: missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        got = np.shape(params[name])
        if got != shape:
            raise ModelError(f"shape mismatch for '{name}': checkpoint has {got}, config expects {shape}")


class ProteinEncoder:
    """Parameter container plus forward passes for one aspect model."""

    def __init__(self, config: ModelConfig, seed: int = 0, params=None):
        self.config = config
        if params is not None:
            check_params(config, params)
            self.params = {k: ad.parameter(v) for k, v in params.items()}
        else:
            self.params = self._init_params(seed)

    def _init_params(self, seed: int) -> dict:
        rng = np.random.Generator(np.random.PCG64(seed))
        params = {}
        for name, shape in _param_shapes(self.config).items():
            if name.endswith("_gamma"):
                data = np.ones(shape)
            elif name.endswith(("_beta", ".b", "bq", "bk", "bv", "bo", "ffn_b1", "ffn_b2")):
                data = np.zeros(shape)
            elif name == "mlm_head.w":
                # zero head so untrained masked-token logits are exactly uniform
                data = np.zeros(shape)
            else:
                data = rng.normal(0.0, 0.02, size=shape)
            params[name] = ad.parameter(data)
        return params

    # -- freezing ---------------------------------------------------------

    def apply_freeze(self, mask: FreezeMask, mode: str = "finetune") -> None:
        groups = set(parameter_groups(self.config))
        unknown = set(mask.frozen) - groups
        if unknown:
            raise ModelError(f"freeze mask names unknown groups: {sorted(unknown)}")
        if mode == "finetune" and mask.is_frozen("classifier"):
            raise ModelError("the classifier group cannot be frozen during fine-tuning")
        for name, tensor in self.params.items():
            tensor.requires_grad = not mask.is_frozen(group_of(name))

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    # -- forward passes ---------------------------------------------------

    def embed(self, ids: np.ndarray) -> Tensor:
        """ids: int array [B, L] -> summed embeddings [B, L, d_model]."""
        ids = np.asarray(ids, dtype=np.int64)
        c = self.config
        if ids.max() >= c.vocab_size:
            raise ModelError(f"token id {ids.max()} out of range for vocab_size {c.vocab_size}")
        L = ids.shape[-1]
        if L > c.max_len + 2:
            raise ModelError(f"sequence length {L} exceeds positional table of {c.max_len + 2}")
        tok = ad.embedding_lookup(self.params["token_embedding.weight"], ids)
        pos = ad.embedding_lookup(self.params["positional_embedding.weight"],
                                  np.broadcast_to(np.arange(L), ids.shape))
        seg = ad.embedding_lookup(self.params["segment_embedding.weight"], np.zeros_like(ids))
        return ad.add(ad.add(tok, pos), seg)

    def _split_heads(self, x: Tensor, B: int, L: int) -> Tensor:
        c = self.config
        dh = c.d_model // c.num_heads
        return ad.transpose(ad.reshape(x, (B, L, c.num_heads, dh)), (0, 2, 1, 3))

    def encoder_layer(self, x: Tensor, i: int, pad_mask: np.ndarray, drop_rng=None) -> Tensor:
        c = self.config
        p = self.params
        pre = f"layer_{i}."
        B, L, _ = x.shape
        dh = c.d_model // c.num_heads

        q = self._split_heads(ad.add(ad.matmul(x, p[pre + "wq"]), p[pre + "bq"]), B, L)
        k = self._split_heads(ad.add(ad.matmul(x, p[pre + "wk"]), p[pre + "bk"]), B, L)
        v = self._split_heads(ad.add(ad.matmul(x, p[pre + "wv"]), p[pre + "bv"]), B, L)

        # scale, key bias and softmax overwrite q·kᵀ: one B·H·L² array per layer
        scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)))
        scores = ad.scale(scores, 1.0 / np.sqrt(dh), out=scores.data)
        if not pad_mask.all():  # without padding the key bias is all zeros
            scores = ad.add_constant(scores, (1.0 - pad_mask)[:, None, None, :] * -1e30, out=scores.data)
        attn = ad.softmax(scores, axis=-1, out=scores.data)
        ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (B, L, c.d_model))
        attn_out = ad.add(ad.matmul(ctx, p[pre + "wo"]), p[pre + "bo"])
        if drop_rng is not None and c.dropout > 0:
            attn_out = ad.dropout(attn_out, c.dropout, drop_rng)
        h = ad.layer_norm(ad.add(x, attn_out), p[pre + "ln1_gamma"], p[pre + "ln1_beta"])

        ff = ad.add(ad.matmul(ad.gelu(ad.add(ad.matmul(h, p[pre + "ffn_w1"]), p[pre + "ffn_b1"])),
                              p[pre + "ffn_w2"]), p[pre + "ffn_b2"])
        if drop_rng is not None and c.dropout > 0:
            ff = ad.dropout(ff, c.dropout, drop_rng)
        return ad.layer_norm(ad.add(h, ff), p[pre + "ln2_gamma"], p[pre + "ln2_beta"])

    @ad.cpu_pool()  # every forward runs with OpenBLAS at one thread
    def encode(self, ids: np.ndarray, pad_mask: np.ndarray, drop_rng=None, x=None, start=0, stop=None) -> Tensor:
        """Layers start..stop (default: all) over x, the input of layer start (default: the embedded ids)."""
        x = self.embed(ids) if x is None else x
        for i in range(start, self.config.num_layers if stop is None else stop):
            x = self.encoder_layer(x, i, pad_mask, drop_rng)
        return x

    def forward_classify(self, ids: np.ndarray, pad_mask: np.ndarray, drop_rng=None, x=None, start=0) -> Tensor:
        """[B, L] token ids -> [B, num_labels] pre-sigmoid logits; x and start as in encode."""
        h = self.encode(ids, pad_mask, drop_rng, x, start)
        pooled = ad.mean_pool(h, pad_mask)
        pooled = ad.gelu(ad.add(ad.matmul(pooled, self.params["pooler.w"]), self.params["pooler.b"]))
        return ad.add(ad.matmul(pooled, self.params["classifier.w"]), self.params["classifier.b"])

    def forward_mlm(self, ids: np.ndarray, pad_mask: np.ndarray, drop_rng=None) -> Tensor:
        """[B, L] token ids -> [B, L, vocab_size] per-position logits."""
        h = self.encode(ids, pad_mask, drop_rng)
        return ad.add(ad.matmul(h, self.params["mlm_head.w"]), self.params["mlm_head.b"])


def pad_batch(sequences) -> tuple:
    """Right-pad TokenSequences with PAD; returns (ids [B, L], mask [B, L])."""
    max_len = max(len(s.ids) for s in sequences)
    B = len(sequences)
    ids = np.full((B, max_len), PAD_ID, dtype=np.int64)
    mask = np.zeros((B, max_len), dtype=np.float64)
    for row, s in enumerate(sequences):
        ids[row, : len(s.ids)] = s.ids
        mask[row, : len(s.ids)] = 1.0
    return ids, mask
