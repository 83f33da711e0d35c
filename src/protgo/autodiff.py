"""Dense-array reverse-mode autodiff on top of numpy.

A Tensor wraps a numpy array and the record of the op that made it: the
op's backward closure, which holds only the arrays and shapes it reads, and
its parents' records, never the op's output. ``backward()`` on a scalar walks
the records in reverse topological order, accumulates gradients into every
tensor created with ``requires_grad=True`` (summing over paths) and frees
each record once its closure has run, so each graph takes one ``backward()``.

Kept deliberately small: only the operations the encoder model needs, no
broadcasting beyond bias addition over the last axis, and shape mismatches
raise immediately. ``scale``, ``add_constant`` and ``softmax`` take a
numpy-style ``out``; it may be the input's buffer if no other op reads the
input, since none of their own backwards reads the input's value.

Inside ``cpu_pool()`` the heavy ops (batched ``matmul``, ``softmax``,
``gelu``, ``layer_norm`` and ``scale``, forward and backward) split their
leading axis into one block per worker. Each block runs the numpy calls of
the whole array in the same order, and no reduction crosses a block, so the
bits do not depend on the number of workers.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np


class ShapeError(ValueError):
    pass


class _Node:
    """An op's graph record: its backward closure and its parents' records (a
    leaf Tensor stands for itself), never the op's output. backward() empties
    it once its closure has run."""

    __slots__ = ("_parents", "_backward")

    def __init__(self, parents, backward):
        self._parents = parents
        self._backward = backward


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad=False, _node=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = _node

    @property
    def _parents(self):
        return self._node._parents if self._node else ()

    @property
    def _backward(self):
        return self._node._backward if self._node else None

    @_backward.setter
    def _backward(self, fn):
        self._node._backward = fn

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
        root = self._node or self
        order = _toposort(root)
        grads = {id(root): np.ones_like(self.data)}
        while order:
            node = order.pop()
            g = grads.pop(id(node), None)
            if isinstance(node, Tensor):
                if g is not None and node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            parents, closure = node._parents, node._backward
            node._parents, node._backward = (), None  # frees what only this closure read
            if g is None:
                continue
            if closure is None:
                raise ShapeError("backward() reached a graph an earlier backward() freed; each graph takes one")
            for parent, pg in zip(parents, closure(g)):
                if pg is None:
                    continue
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _toposort(root):
    """Topological order of the records under root: leaves first, root last."""
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


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
    return get, set_


@functools.cache
def _glibc_malloc():
    """(mallopt, malloc_trim) of glibc, or None under another libc."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, trim = libc.mallopt, libc.malloc_trim
    except (AttributeError, TypeError, OSError):
        return None
    mallopt.argtypes, trim.argtypes = [ctypes.c_int, ctypes.c_int], [ctypes.c_size_t]
    mallopt.restype = trim.restype = ctypes.c_int
    return mallopt, trim


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pool_threads():
    """(workers of cpu_pool(), BLAS threads inside it), or (1, None) where
    BLAS's thread count cannot be set."""
    return (_cpus(), 1) if _openblas() else (1, None)


class _Pool:
    """The process's one cpu_pool(): BLAS threads and malloc arenas are per process."""

    executor = None  # the ThreadPoolExecutor of the open cpu_pool() block
    owner = None  # ident of the thread that opened it: only its ops split
    workers = 1


_pool = _Pool()
_pool_lock = threading.Lock()
# elements: a smaller op runs as one block, since handing out blocks costs more than it saves
_FLOOR = 2 ** 15


@contextlib.contextmanager
def cpu_pool():
    """Yields an executor of one thread per usable CPU, and splits the heavy ops
    the opening thread calls over it. While it is open, numpy's OpenBLAS runs at
    one thread (its count is restored after the workers are joined) and the
    process keeps one malloc arena, whose free pages go back to the system when
    the block closes, so no block's peak grows with what earlier blocks' threads
    left fragmented. An open inside an open block, from any thread, yields the
    same executor and changes nothing."""
    with _pool_lock:
        outer = _pool.executor
        if outer is None:
            workers, _ = pool_threads()
            blas = _openblas()
            previous = blas[0]() if blas else None
            malloc = _glibc_malloc()
            if malloc:
                malloc[0](-8, 1)  # mallopt(M_ARENA_MAX, 1)
            if blas:
                blas[1](1)  # BLAS threads on top of the workers would oversubscribe the CPUs
            _pool.executor = ThreadPoolExecutor(workers)
            _pool.owner, _pool.workers = threading.get_ident(), workers
    if outer is not None:
        yield outer
        return
    try:
        yield _pool.executor
    finally:
        _pool.executor.shutdown(cancel_futures=True)  # queued calls are dropped, running ones joined
        with _pool_lock:
            _pool.executor, _pool.owner, _pool.workers = None, None, 1
        if blas:
            blas[1](previous)
        if malloc:
            malloc[1](0)  # malloc_trim


def _split(out, kernel, reduced=None):
    """Calls kernel(rows) so that together the calls cover out's leading axis,
    and returns out. On the thread that opened cpu_pool(), an `out` of at least
    _FLOOR elements is cut into one block of rows per worker, the first run
    here; elsewhere kernel(...) runs once. `reduced` is the axis the kernel
    reduces along, never split. A kernel writes only its own rows of `out`."""
    n = out.shape[0] if out.ndim else 1
    blocks = 1
    if (out.size >= _FLOOR and _pool.owner == threading.get_ident()
            and (reduced is None or reduced % out.ndim != 0)):
        blocks = min(_pool.workers, n)
    if blocks == 1:
        kernel(...)
        return out
    bounds = [n * i // blocks for i in range(blocks + 1)]
    futures = [_pool.executor.submit(kernel, slice(lo, hi)) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        kernel(slice(0, bounds[1]))
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return out


def _make(data, parents, backward):
    if _grad_mode.enabled and any(t.requires_grad or t._node for t in parents):
        return Tensor(data, _node=_Node(tuple(t._node or t for t in parents), backward))
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
    sa, sb = a.shape, b.shape
    return _make(a.data + b.data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def _scaled(x, c, out=None):
    """x * c, into `out` when given."""
    out = np.empty_like(x) if out is None else out
    return _split(out, lambda rows: np.multiply(x[rows], c, out=out[rows]))


def scale(a: Tensor, c: float, out=None) -> Tensor:
    """a * c, written into `out` when given; `out` may be a.data."""
    c = float(c)
    return _make(_scaled(a.data, c, out), (a,), lambda g: (_scaled(g, c),))


def _matmul(x, y):
    """np.matmul(x, y), split by rows of x's leading axis when x has batch axes."""
    if x.ndim < 3 or y.ndim > x.ndim or (y.ndim == x.ndim and y.shape[0] not in (1, x.shape[0])):
        return np.matmul(x, y)
    y_rows = y.ndim == x.ndim and y.shape[0] > 1
    out = np.empty(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (x.shape[-2], y.shape[-1]))
    return _split(out, lambda rows: np.matmul(x[rows], y[rows] if y_rows else y, out=out[rows]))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree between {a.shape} and {b.shape}")
    x, y = a.data, b.data

    def backward(g):
        ga = _unbroadcast(_matmul(g, y.swapaxes(-1, -2)), x.shape)
        gb = _unbroadcast(_matmul(x.swapaxes(-1, -2), g), y.shape)
        return ga, gb

    return _make(_matmul(x, y), (a, b), backward)


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
    x = a.data
    out = np.empty_like(x) if out is None else out

    def forward(rows):
        o = out[rows]
        np.subtract(x[rows], x[rows].max(axis=axis, keepdims=True), out=o)
        np.exp(o, out=o)
        o /= o.sum(axis=axis, keepdims=True)

    def backward(g):
        dx = np.empty_like(g)

        def rows_of(rows):  # (g - sum(g * out)) * out
            r, gr = dx[rows], g[rows]
            np.multiply(gr, out[rows], out=r)
            dot = r.sum(axis=axis, keepdims=True)
            np.subtract(gr, dot, out=r)
            r *= out[rows]

        return (_split(dx, rows_of, axis),)

    return _make(_split(out, forward, axis), (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma/beta must have shape ({d},)")
    xd = x.data
    inv = np.empty(xd.shape[:-1] + (1,))
    xhat = np.empty_like(xd)
    out = np.empty_like(xd)

    def forward(rows):
        xr, xh, o = xd[rows], xhat[rows], out[rows]
        mean = xr.mean(axis=-1, keepdims=True)
        var = xr.var(axis=-1, keepdims=True)  # population variance
        np.divide(1.0, np.sqrt(var + eps), out=inv[rows])
        np.subtract(xr, mean, out=xh)
        xh *= inv[rows]
        np.multiply(xh, gamma.data, out=o)
        o += beta.data

    def backward(g):
        dx = np.empty_like(g)

        def rows_of(rows):  # inv * (gg - mean(gg) - xhat * mean(gg * xhat)), gg = g * gamma
            r, xh = dx[rows], xhat[rows]
            gg = g[rows] * gamma.data
            np.multiply(gg, xh, out=r)
            m = r.mean(axis=-1, keepdims=True)
            np.multiply(xh, m, out=r)
            gg -= gg.mean(axis=-1, keepdims=True)
            np.subtract(gg, r, out=r)
            r *= inv[rows]

        _split(dx, rows_of, -1)
        axes = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        return dx, dgamma, dbeta

    return _make(_split(out, forward, -1), (x, gamma, beta), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    # tanh approximation; forward and backward are self-consistent
    xd = x.data
    t = np.empty_like(xd)
    out = np.empty_like(xd)

    def forward(rows):  # t = tanh(C * (x + 0.044715 * x**3)); out = 0.5 * x * (1 + t)
        xr, tr, o = xd[rows], t[rows], out[rows]
        np.power(xr, 3, out=tr)
        tr *= 0.044715
        tr += xr
        tr *= _GELU_C
        np.tanh(tr, out=tr)
        np.multiply(xr, 0.5, out=o)
        o *= 1.0 + tr

    def backward(g):
        dx = np.empty_like(g)

        def rows_of(rows):  # g * (0.5 * (1 + t) + 0.5 * x * (1 - t**2) * C * (1 + 3 * 0.044715 * x**2))
            xr, tr, r = xd[rows], t[rows], dx[rows]
            np.square(xr, out=r)
            r *= 3 * 0.044715
            r += 1.0
            r *= _GELU_C
            u = np.square(tr)
            np.subtract(1.0, u, out=u)
            v = np.multiply(xr, 0.5)
            v *= u
            r *= v
            np.add(tr, 1.0, out=u)
            u *= 0.5
            r += u
            r *= g[rows]

        return (_split(dx, rows_of),)

    return _make(_split(out, forward), (x,), backward)


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
    shape = a.shape
    return _make(np.add(a.data, c, out=out), (a,), lambda g: (_unbroadcast(g, shape),))


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    if p <= 0.0:
        return x
    kept = rng.random(x.shape) >= p  # one byte per element until backward scales it
    return _make(x.data * (kept / (1.0 - p)), (x,), lambda g: (g * (kept / (1.0 - p)),))


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
    flat_shape, shape = flat.shape, logits.shape

    def backward(g):
        probs = np.exp(logp)
        probs[np.arange(n), target_ids] -= 1.0
        dflat = np.zeros(flat_shape)
        np.add.at(dflat, positions, probs * (float(g) / n))
        return (dflat.reshape(shape),)

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
