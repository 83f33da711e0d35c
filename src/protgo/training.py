"""Masked-token pretraining and multi-label fine-tuning.

An epoch's shuffle order and token masking are drawn from one generator
seeded by (seed, epoch); each chunk's dropout from a generator seeded by
(seed, epoch, micro-batch, chunk). So a run can be resumed from any
epoch-end checkpoint and reproduce the uninterrupted loss trace exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import Checkpoint, checkpoint_from_model, save_checkpoint
from .ingest import MASK_ID, TokenSequence
from .model import FreezeMask, ModelConfig, ProteinEncoder, pad_batch


# padded tokens a chunk of a micro-batch may hold: (members) x (longest member)
TOKEN_BUDGET = 1100


class TrainingError(ValueError):
    pass


@dataclass
class PretrainConfig:
    epochs: int = 1
    batch_size: int = 8
    mask_probability: float = 0.15
    learning_rate: float = 0.002
    weight_decay: float = 0.01
    grad_accumulation: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.mask_probability < 1.0:
            raise TrainingError(f"mask_probability out of (0,1): {self.mask_probability}")
        _validate_common(self)


@dataclass
class FinetuneConfig:
    epochs: int = 1
    batch_size: int = 8
    learning_rate: float = 5e-4
    weight_decay: float = 0.0
    grad_accumulation: int = 32
    seed: int = 0

    def __post_init__(self):
        _validate_common(self)


def _validate_common(cfg):
    for name in ("epochs", "batch_size", "grad_accumulation"):
        value = getattr(cfg, name)
        if not isinstance(value, int) or value < 1:
            raise TrainingError(f"{name} must be an integer >= 1, got {value!r}")
    if cfg.learning_rate <= 0:
        raise TrainingError(f"learning_rate must be positive, got {cfg.learning_rate}")
    if cfg.weight_decay < 0:
        raise TrainingError(f"weight_decay must be non-negative, got {cfg.weight_decay}")


@dataclass
class LossRecord:
    step: int
    epoch: int
    loss: float
    aspect: str = "-"


def mask_tokens(tokens: TokenSequence, p: float, rng: np.random.Generator):
    """Independently mask each residue position with probability p; CLS/SEP
    are never touched. If chance selects nothing, one position is forced."""
    n_inner = len(tokens.ids) - 2
    if n_inner < 1:
        raise TrainingError("sequence has no maskable positions")
    draws = rng.random(n_inner)
    selected = [i + 1 for i in range(n_inner) if draws[i] < p]
    if not selected:
        selected = [1 + int(rng.integers(n_inner))]
    masked_ids = list(tokens.ids)
    targets = []
    for pos in selected:
        targets.append((pos, masked_ids[pos]))
        masked_ids[pos] = MASK_ID
    return TokenSequence(ids=masked_ids, original_length=tokens.original_length), targets


def mlm_loss(logits: ad.Tensor, targets) -> ad.Tensor:
    """Mean NLL at masked positions. logits: [B, L, V]; targets: list per
    batch row of (position, original id) pairs."""
    if not any(targets):
        raise TrainingError("mlm_loss: no masked positions")
    L = logits.shape[1]
    flat_pos, flat_ids = [], []
    for row, row_targets in enumerate(targets):
        for pos, tid in row_targets:
            flat_pos.append(row * L + pos)
            flat_ids.append(tid)
    return ad.nll_from_logits(logits, flat_pos, flat_ids)


def finetune_loss(logits: ad.Tensor, targets: np.ndarray) -> ad.Tensor:
    """Mean binary cross-entropy: GO annotation is multi-label."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise TrainingError(f"target shape {targets.shape} does not match logits {logits.shape}")
    return ad.bce_with_logits(logits, targets)


class AdamState:
    """First/second moment estimates plus the shared step count."""

    def __init__(self, params: dict):
        self.step = 0
        self.m = {k: np.zeros_like(t.data) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in params.items()}

    @classmethod
    def from_arrays(cls, params: dict, step: int, m: dict, v: dict) -> "AdamState":
        state = cls(params)
        state.step = step
        for k in state.m:
            if k in m:
                state.m[k] = m[k].copy()
                state.v[k] = v[k].copy()
        return state

    def to_arrays(self) -> dict:
        return {"step": self.step, "m": {k: a.copy() for k, a in self.m.items()},
                "v": {k: a.copy() for k, a in self.v.items()}}


def adam_step(params: dict, state: AdamState, lr: float, betas=(0.9, 0.999),
              eps: float = 1e-8, weight_decay: float = 0.0) -> None:
    """One Adam update over every requires_grad parameter with a gradient.
    Weight decay is decoupled: applied to the parameter before the update."""
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, tensor in params.items():
        if not tensor.requires_grad or tensor.grad is None:
            continue
        g = tensor.grad
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in parameter group '{name.split('.')[0]}'")
        if weight_decay > 0:
            tensor.data -= lr * weight_decay * tensor.data
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        tensor.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _rng(*key) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _micro_batches(order, batch_size):
    for start in range(0, len(order), batch_size):
        yield order[start : start + batch_size]


def chunks(lengths, budget: int) -> list:
    """Positions of a micro-batch's members, cut into chunks that each pad to at
    most `budget` tokens: members sorted by length (stable), a chunk closed when
    one more member would pass the budget. A batch that fits stays one chunk in
    its own order; a member longer than the budget is a chunk of its own."""
    if len(lengths) * max(lengths) <= budget:
        return [list(range(len(lengths)))]
    out = [[]]
    for i in np.argsort(lengths, kind="stable").tolist():
        if out[-1] and (len(out[-1]) + 1) * lengths[i] > budget:
            out.append([])
        out[-1].append(i)
    return out


def _chunk_loss(part: ProteinEncoder, rows, weight: float, drop_rng, mode: str, grad_accumulation: int) -> float:
    """weight x the loss of one chunk's rows on `part`, whose gradients get the
    backward of that loss times weight / grad_accumulation."""
    ids, mask = pad_batch([seq for seq, _ in rows])
    if mode == "pretrain":
        loss = mlm_loss(part.forward_mlm(ids, mask, drop_rng), [targets for _, targets in rows])
    else:
        labels = np.stack([bits for _, bits in rows]).astype(np.float64)
        loss = finetune_loss(part.forward_classify(ids, mask, drop_rng), labels)
    loss_value = loss.item()
    if not np.isfinite(loss_value):
        raise TrainingError("non-finite loss; training aborted, last checkpoint retained")
    ad.scale(loss, weight / grad_accumulation).backward()
    return weight * loss_value


@ad.cpu_pool()
def train_loop(model: ProteinEncoder, data, config, mode: str,
               freeze_mask: FreezeMask | None = None,
               checkpoint_path=None, loss_log=None, aspect: str = "-",
               start_epoch: int = 0, adam_state: AdamState | None = None):
    """Run pretraining ("pretrain": data = TokenSequences) or fine-tuning
    ("finetune": data = (TokenSequence, label bits) pairs).

    Returns (final Checkpoint, list of LossRecord). One optimizer step per
    grad_accumulation micro-batches; micro-batch losses are scaled by
    1/grad_accumulation so the step is equivalent to one large batch.
    Runs on ad.cpu_pool(): a micro-batch cut into several chunks runs them
    on its workers.
    """
    if not data:
        raise TrainingError("training data is empty")
    if mode not in ("pretrain", "finetune"):
        raise TrainingError(f"unknown training mode '{mode}'")
    if freeze_mask is None:
        freeze_mask = FreezeMask.none(model.config)
    model.apply_freeze(freeze_mask, mode=mode if mode == "finetune" else "pretrain")

    if adam_state is None:
        adam_state = AdamState(model.params)
    records: list = []
    step = adam_state.step
    last_ckpt = None
    for epoch in range(start_epoch, config.epochs):
        rng = _rng(config.seed, epoch)
        order = rng.permutation(len(data))
        model.zero_grads()
        pending = 0
        acc_loss = 0.0

        def flush():
            nonlocal pending, acc_loss, step
            adam_step(model.params, adam_state, config.learning_rate,
                      weight_decay=config.weight_decay)
            model.zero_grads()
            step += 1
            rec = LossRecord(step=step, epoch=epoch, loss=acc_loss, aspect=aspect)
            records.append(rec)
            if loss_log is not None:
                loss_log.write(f"{rec.step},{rec.epoch},{rec.aspect},{rec.loss:.10g}\n")
                loss_log.flush()
            pending = 0
            acc_loss = 0.0

        for batch_no, batch_idx in enumerate(_micro_batches(order, config.batch_size)):
            if mode == "pretrain":  # masks are drawn here, in batch order, before any chunk runs
                rows = [mask_tokens(data[i], config.mask_probability, rng) for i in batch_idx]
            else:
                rows = [data[i] for i in batch_idx]
            lengths = [len(seq.ids) for seq, _ in rows]
            parts = [[rows[i] for i in members] for members in chunks(lengths, TOKEN_BUDGET)]
            # a chunk's loss counts by its share of the batch: masked positions, or rows
            size = (lambda part: sum(len(t) for _, t in part)) if mode == "pretrain" else len
            jobs = [(part, size(part) / size(rows), _rng(config.seed, epoch, batch_no, c))
                    for c, part in enumerate(parts)]
            run = functools.partial(_chunk_loss, mode=mode, grad_accumulation=config.grad_accumulation)
            if len(jobs) == 1:  # on this thread, its ops split over the pool
                losses = [run(model, *jobs[0])]
            else:  # whole chunks on the workers, each on a copy that shares the model's arrays
                copies = [ProteinEncoder(model.config, params={k: t.data for k, t in model.params.items()})
                          for _ in jobs]
                for part in copies:
                    part.apply_freeze(freeze_mask, mode=mode)
                with ad.cpu_pool() as pool:
                    losses = list(pool.map(run, copies, *zip(*jobs)))
                for part in copies:  # summed here in chunk order, so the worker count changes no bit
                    for k, t in part.params.items():
                        if t.grad is not None:
                            g = model.params[k].grad
                            model.params[k].grad = t.grad if g is None else g + t.grad
            acc_loss += sum(losses) / config.grad_accumulation
            pending += 1
            if pending == config.grad_accumulation:
                flush()
        if pending:
            flush()

        last_ckpt = checkpoint_from_model(
            model, freeze_mask,
            optimizer_state=adam_state.to_arrays(),
            rng_state={"seed": config.seed, "epochs_completed": epoch + 1},
        )
        if checkpoint_path is not None:
            save_checkpoint(last_ckpt, checkpoint_path)

    if last_ckpt is None:
        # start_epoch >= epochs: nothing to do, still emit a checkpoint
        last_ckpt = checkpoint_from_model(
            model, freeze_mask,
            optimizer_state=adam_state.to_arrays(),
            rng_state={"seed": config.seed, "epochs_completed": start_epoch},
        )
    return last_ckpt, records


def resume_state(ckpt: Checkpoint, model: ProteinEncoder):
    """(start_epoch, AdamState) recovered from a checkpoint."""
    start_epoch = int(ckpt.rng_state.get("epochs_completed", 0))
    if ckpt.optimizer_state is None:
        return start_epoch, AdamState(model.params)
    state = AdamState.from_arrays(model.params, ckpt.optimizer_state["step"],
                                  ckpt.optimizer_state["m"], ckpt.optimizer_state["v"])
    return start_epoch, state


def config_from_json(data, kind: str, **derived):
    """The `kind` config ("pretrain", "finetune" or "model") from the fields
    of a JSON object, defaults filling the rest. `derived` holds the fields
    whose values the program sets itself; the JSON may not name them."""
    cls = {"pretrain": PretrainConfig, "finetune": FinetuneConfig, "model": ModelConfig}[kind]
    if not isinstance(data, dict):
        raise TrainingError(f"a {kind} config must be a JSON object, got {type(data).__name__}")
    allowed = set(cls.__dataclass_fields__) - set(derived)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise TrainingError(f"unknown config field(s) {unknown}: a {kind} config takes {sorted(allowed)}")
    try:
        return cls(**data, **derived)
    except TypeError as exc:
        raise TrainingError(f"invalid {kind} config: {exc}") from exc
