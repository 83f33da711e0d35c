"""Dense-array reverse-mode autodiff on top of numpy.

A Tensor wraps a numpy array and remembers how it was produced; calling
``backward()`` on a scalar walks the recorded graph in reverse topological
order and accumulates gradients into every tensor created with
``requires_grad=True``. Gradients reached through multiple paths are summed.

Kept deliberately small: only the operations the encoder model needs, no
broadcasting beyond bias addition over the last axis, and shape mismatches
raise immediately. ``scale``, ``add_constant`` and ``softmax`` take a
numpy-style ``out``; it may be the input's buffer if no other op reads the
input, since none of their own backwards reads the input's value.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np


class ShapeError(ValueError):
    pass


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
        order = _toposort(self)
        grads = {id(self): np.ones_like(self.data)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _toposort(root):
    """Reverse topological order: root first, leaves last."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    order.reverse()
    return order


class _GradMode(threading.local):
    enabled = True  # False inside this thread's no_grad() block: ops then record no graph


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Inference mode for the calling thread: tensors it makes inside the block
    keep no graph, so activations are freed as soon as the forward pass moves on."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _needs_graph(*tensors):
    return any(t.requires_grad or t._parents for t in tensors)


def _make(data, parents, backward):
    if _grad_mode.enabled and _needs_graph(*parents):
        out = Tensor(data, _parents=tuple(parents))
        out._backward = backward
        return out
    return Tensor(data)


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def parameter(data):
    return Tensor(data, requires_grad=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        # the one permitted broadcast: bias over the last axis
        bias_ok = (b.data.ndim == 1 and a.data.ndim >= 1 and a.shape[-1] == b.shape[0]) or (
            a.data.ndim == 1 and b.data.ndim >= 1 and b.shape[-1] == a.shape[0]
        )
        if not bias_ok:
            raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    data = a.data + b.data
    return _make(
        data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def scale(a: Tensor, c: float, out=None) -> Tensor:
    """a * c, written into `out` when given; `out` may be a.data."""
    c = float(c)
    return _make(np.multiply(a.data, c, out=out), (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree between {a.shape} and {b.shape}")
    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)
        return ga, gb

    return _make(data, (a, b), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def softmax(a: Tensor, axis: int = -1, out=None) -> Tensor:
    """Softmax along `axis`, into `out` when given; `out` may be a.data."""
    out = np.subtract(a.data, a.data.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _make(out, (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma/beta must have shape ({d},)")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)  # population variance
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    out = xhat * gamma.data + beta.data

    def backward(g):
        gg = g * gamma.data
        dx = inv * (gg - gg.mean(axis=-1, keepdims=True) - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        return dx, dgamma, dbeta

    return _make(out, (x, gamma, beta), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    # tanh approximation; forward and backward are self-consistent
    inner = _GELU_C * (x.data + 0.044715 * x.data ** 3)
    t = np.tanh(inner)
    out = 0.5 * x.data * (1.0 + t)

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x.data ** 2)
        dx = 0.5 * (1.0 + t) + 0.5 * x.data * (1.0 - t ** 2) * dinner
        return (g * dx,)

    return _make(out, (x,), backward)


def mean_pool(x: Tensor, mask: np.ndarray) -> Tensor:
    """Average over the sequence axis (second-to-last), counting only
    positions where mask is 1. mask shape: x.shape[:-1]."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.shape[:-1]:
        raise ShapeError(f"mean_pool: mask shape {mask.shape} does not match {x.shape[:-1]}")
    counts = mask.sum(axis=-1, keepdims=True)
    if np.any(counts == 0):
        raise ShapeError("mean_pool: mask selects no positions")
    weights = (mask / counts)[..., None]
    out = (x.data * weights).sum(axis=-2)

    def backward(g):
        return (g[..., None, :] * weights,)

    return _make(out, (x,), backward)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding_lookup: id out of range for table of {table.shape[0]} rows")
    out = table.data[ids]

    def backward(g):
        dtable = np.zeros_like(table.data)
        np.add.at(dtable, ids, g)
        return (dtable,)

    return _make(out, (table,), backward)


def add_constant(a: Tensor, c: np.ndarray, out=None) -> Tensor:
    """Add a non-differentiable array (broadcastable), e.g. an attention mask,
    written into `out` when given; `out` may be a.data."""
    return _make(np.add(a.data, c, out=out), (a,), lambda g: (_unbroadcast(g, a.shape),))


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    if p <= 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return _make(x.data * keep, (x,), lambda g: (g * keep,))


def nll_from_logits(logits: Tensor, positions, target_ids) -> Tensor:
    """Mean negative log-likelihood of target_ids at the given row positions.

    logits: [L, V] or [B, L, V] flattened by the caller to [rows, V];
    positions indexes rows, target_ids the true class per position.
    """
    positions = np.asarray(positions, dtype=np.int64)
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if positions.size == 0:
        raise ShapeError("nll_from_logits: no target positions")
    flat = logits.data.reshape(-1, logits.shape[-1])
    rows = flat[positions]
    shifted = rows - rows.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    n = positions.shape[0]
    loss = -logp[np.arange(n), target_ids].mean()

    def backward(g):
        probs = np.exp(logp)
        probs[np.arange(n), target_ids] -= 1.0
        dflat = np.zeros_like(flat)
        np.add.at(dflat, positions, probs * (float(g) / n))
        return (dflat.reshape(logits.shape),)

    return _make(np.array(loss), (logits,), backward)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Binary cross-entropy against sigmoid(logits), mean over all elements.

    Stable form: max(z,0) - z*y + log(1+exp(-|z|)).
    """
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: target shape {y.shape} does not match logits {logits.shape}")
    z = logits.data
    with np.errstate(invalid="ignore", over="ignore"):
        per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    n = z.size
    loss = per.sum() / n

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-z))
        return ((sig - y) * (float(g) / n),)

    return _make(np.array(loss), (logits,), backward)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Plain numpy sigmoid for inference-time score conversion."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
