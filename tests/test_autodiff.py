import math
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from protgo import autodiff as ad
from conftest import blas_threads
from oracles import constant, finite_difference_grads, relative_error, tensor_sum


def _param(data):
    return ad.parameter(np.asarray(data, dtype=float))


class TestMatmul:
    def test_identity(self):
        a = _param(np.eye(2))
        b = _param([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(a, b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_hand_case(self):
        out = ad.matmul(_param([[1.0, 2.0]]), _param([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.matmul(_param(np.zeros((2, 3))), _param(np.zeros((4, 5))))

    def test_backward_rules(self):
        a = _param(np.arange(6.0).reshape(2, 3))
        b = _param(np.arange(12.0).reshape(3, 4))
        out = ad.matmul(a, b)
        loss = tensor_sum(out)
        loss.backward()
        g = np.ones((2, 4))
        np.testing.assert_allclose(a.grad, g @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ g)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(_param([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_overflow_stability(self):
        out = ad.softmax(_param([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_log_ratios(self):
        out = ad.softmax(_param([math.log(1), math.log(2), math.log(3)]))
        np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = ad.softmax(_param(rng.normal(size=(5, 7))), axis=-1)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)


class TestLayerNorm:
    def test_constant_vector_zeros(self):
        x = _param(np.full((4,), 3.7))
        out = ad.layer_norm(x, _param(np.ones(4)), _param(np.zeros(4)))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-6)

    def test_hand_case(self):
        out = ad.layer_norm(_param([1.0, 2.0, 3.0]), _param(np.ones(3)), _param(np.zeros(3)), eps=0.0)
        np.testing.assert_allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_beta_shift(self):
        beta = np.array([0.5, -1.0, 2.0])
        out = ad.layer_norm(_param(np.full((3,), 9.9)), _param(np.ones(3)), _param(beta))
        np.testing.assert_allclose(out.data, beta, atol=1e-5)

    def test_normalized_moments(self):
        rng = np.random.default_rng(0)
        x = _param(rng.normal(0, 5, size=(6, 16)))
        out = ad.layer_norm(x, _param(np.ones(16)), _param(np.zeros(16)))
        assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-10)
        np.testing.assert_allclose(out.data.var(axis=-1), np.ones(6), atol=1e-6)


class TestSimpleOps:
    def test_gelu_zero(self):
        assert ad.gelu(_param([0.0])).data[0] == 0.0

    def test_mean_pool(self):
        x = _param([[1.0, 3.0], [3.0, 5.0]])
        out = ad.mean_pool(x, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out.data, [2.0, 4.0])

    def test_mean_pool_single(self):
        x = _param([[1.0, 3.0], [3.0, 5.0]])
        out = ad.mean_pool(x, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 3.0])

    def test_embedding_lookup(self):
        table = _param(np.arange(12.0).reshape(4, 3))
        out = ad.embedding_lookup(table, [2, 0, 2])
        loss = tensor_sum(out)
        loss.backward()
        np.testing.assert_array_equal(out.data, table.data[[2, 0, 2]])
        expected = np.zeros((4, 3))
        expected[2] = 2.0
        expected[0] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_add_rejects_general_broadcast(self):
        with pytest.raises(ad.ShapeError):
            ad.add(_param(np.zeros((2, 3))), _param(np.zeros((2, 1))))

    def test_add_bias_over_last_axis(self):
        out = ad.add(_param(np.zeros((2, 3))), _param([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])


class TestBackward:
    def test_sum_gives_ones(self):
        x = _param(np.zeros((2, 3)))
        tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_hand_grad(self):
        x = _param([[1.0, 2.0]])
        tensor_sum(ad.matmul(x, ad.transpose(x, (1, 0)))).backward()  # x . x
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ad.ShapeError):
            _param([1.0, 2.0]).backward()

    def test_multi_path_gradients_sum(self):
        x = _param([2.0])
        y = ad.add(x, x)
        tensor_sum(y).backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_idempotent_after_reset(self):
        x = _param(np.array([[0.3, -0.7]]))
        def run():
            x.zero_grad()
            tensor_sum(ad.gelu(ad.matmul(ad.transpose(x, (1, 0)), x))).backward()
            return x.grad.copy()
        first = run()
        second = run()
        np.testing.assert_array_equal(first, second)


class TestGraphRelease:
    """The graph keeps only what some backward reads, and backward frees that
    as it goes."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(17)
        return _param(rng.normal(size=(4, 3))), _param(rng.normal(size=(3, 5))), _param(rng.normal(size=5))

    def test_an_output_no_backward_reads_is_freed_with_the_forward(self):
        x, w, b = self._inputs()
        product = ad.matmul(x, w)
        product_data = weakref.ref(product.data)
        total = ad.add(product, b)  # add's backward reads only shapes
        del product
        assert product_data() is None
        assert total._parents
        tensor_sum(total).backward()
        np.testing.assert_allclose(w.grad, x.data.T @ np.ones((4, 5)))
        np.testing.assert_allclose(b.grad, np.full(5, 4.0))

    def test_a_saved_array_is_freed_by_backward(self):
        x, w, _ = self._inputs()
        product = ad.matmul(x, w)
        product_data = weakref.ref(product.data)
        loss = tensor_sum(ad.gelu(product))  # gelu's backward reads its input
        del product
        assert product_data() is not None
        loss.backward()
        assert product_data() is None
        assert x.grad is not None and w.grad is not None

    def test_a_second_backward_through_a_graph_raises_in_one_line(self):
        x, w, _ = self._inputs()
        loss = tensor_sum(ad.matmul(x, w))
        loss.backward()
        with pytest.raises(ad.ShapeError, match="freed") as err:
            loss.backward()
        assert "\n" not in str(err.value)

    def test_a_new_loss_on_a_backwarded_output_raises_before_any_gradient(self):
        x, w, _ = self._inputs()
        product = ad.matmul(x, w)
        tensor_sum(product).backward()
        first = x.grad.copy()
        with pytest.raises(ad.ShapeError, match="freed"):
            tensor_sum(ad.gelu(product)).backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_backward_runs_the_closure_a_record_holds_when_it_runs(self):
        """A closure set on an output after the op returned, as a tracer does,
        is the one backward calls."""
        x, w, _ = self._inputs()
        out = ad.matmul(x, w)
        calls = []
        recorded = out._backward
        out._backward = lambda g: calls.append(g.shape) or recorded(g)
        tensor_sum(out).backward()
        assert calls == [(4, 5)]
        assert out._parents == () and out._backward is None  # freed once it ran

    def test_dropout_saves_a_bool_mask_and_its_gradient_is_bit_exact(self):
        rng = np.random.default_rng(23)
        x = _param(rng.normal(size=(3, 4, 5)))
        g = rng.normal(size=(3, 4, 5))
        p = 0.3
        out = ad.dropout(x, p, np.random.default_rng(5))
        mask = (np.random.default_rng(5).random(x.shape) >= p).astype(np.float64) / (1 - p)
        saved = [c.cell_contents for c in out._backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert [a.dtype for a in saved] == [np.bool_]
        (dx,) = out._backward(g)
        assert (x.data * mask).tobytes() == out.data.tobytes()
        assert (g * mask).tobytes() == dx.tobytes()


class TestNoGrad:
    def test_records_no_parents(self):
        x = _param(np.ones((2, 3)))
        w = _param(np.ones((3, 3)))
        with ad.no_grad():
            out = ad.gelu(ad.add(ad.matmul(x, w), _param(np.zeros(3))))
        assert out._parents == () and out._backward is None
        np.testing.assert_allclose(out.data, ad.gelu(ad.matmul(x, w)).data)

    def test_restores_grad_mode_after_exception(self):
        x = _param([[1.0, 2.0]])
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside the block")
        assert ad.matmul(x, ad.transpose(x, (1, 0)))._parents

    def test_backward_after_block_fills_gradients(self):
        x = _param([[1.0, 2.0]])
        with ad.no_grad():
            ad.matmul(x, ad.transpose(x, (1, 0)))
        tensor_sum(ad.matmul(x, ad.transpose(x, (1, 0)))).backward()
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]])

    def test_a_block_in_another_thread_leaves_this_threads_graph_on(self):
        """Each thread has its own mode: while a worker sits in no_grad() the
        main thread records graphs, and blocks left in either order leave
        both threads recording."""
        x = _param([[1.0, 2.0]])
        entered, leave = threading.Event(), threading.Event()
        worker_records = []

        def infer():
            with ad.no_grad():
                entered.set()
                leave.wait(timeout=10)
            worker_records.append(bool(ad.matmul(x, ad.transpose(x, (1, 0)))._parents))

        worker = threading.Thread(target=infer)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            assert ad.matmul(x, ad.transpose(x, (1, 0)))._parents
            with ad.no_grad():
                leave.set()
                worker.join(timeout=10)
        finally:
            leave.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert worker_records == [True]
        assert ad.matmul(x, ad.transpose(x, (1, 0)))._parents

    def test_many_threads_switching_often_keep_their_own_mode(self):
        x = _param([[1.0, 2.0]])
        wrong = []

        def work():
            for _ in range(200):
                with ad.no_grad():
                    if ad.matmul(x, ad.transpose(x, (1, 0)))._parents:
                        wrong.append("graph inside no_grad")
                if not ad.matmul(x, ad.transpose(x, (1, 0)))._parents:
                    wrong.append("no graph outside no_grad")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert ad.matmul(x, ad.transpose(x, (1, 0)))._parents


class TestGradientFidelity:
    """Every differentiable op against central finite differences."""

    @pytest.mark.parametrize("op_name", [
        "matmul", "softmax", "layer_norm", "gelu", "mean_pool",
        "embedding", "add", "scale", "transpose", "reshape",
        "scale_out", "add_constant_out", "softmax_out",
    ])
    def test_op_matches_finite_differences(self, op_name):
        rng = np.random.default_rng(hash(op_name) % 2**31)
        x = ad.parameter(rng.uniform(-2, 2, size=(3, 4)))
        w = ad.parameter(rng.uniform(-2, 2, size=(4, 4)))
        bias = rng.normal(size=4)

        def forward():
            if op_name == "matmul":
                out = ad.matmul(x, w)
            elif op_name == "softmax":
                out = ad.softmax(ad.matmul(x, w), axis=-1)
            elif op_name == "layer_norm":
                out = ad.layer_norm(ad.matmul(x, w), constant(np.ones(4)), constant(np.zeros(4)))
            elif op_name == "gelu":
                out = ad.gelu(ad.matmul(x, w))
            elif op_name == "mean_pool":
                out = ad.mean_pool(ad.matmul(x, w), np.array([1.0, 1.0, 0.0]))
            elif op_name == "embedding":
                out = ad.matmul(ad.embedding_lookup(w, [0, 2, 1]), ad.transpose(x, (1, 0)))
            elif op_name == "add":
                out = ad.add(ad.matmul(x, w), constant(bias))
            elif op_name == "scale":
                out = ad.scale(ad.matmul(x, w), -1.7)
            elif op_name.endswith("_out"):
                # written into the input's own buffer: the same values as the
                # out-of-place call, and the same gradients
                op = {"scale_out": lambda a, **out: ad.scale(a, -1.7, **out),
                      "add_constant_out": lambda a, **out: ad.add_constant(a, bias, **out),
                      "softmax_out": lambda a, **out: ad.softmax(a, axis=-1, **out)}[op_name]
                expected = op(ad.matmul(x, w)).data
                product = ad.matmul(x, w)
                out = op(product, out=product.data)
                assert out.data is product.data
                np.testing.assert_array_equal(out.data, expected)
            elif op_name == "transpose":
                out = ad.transpose(ad.matmul(x, w), (1, 0))
            else:
                out = ad.reshape(ad.matmul(x, w), (2, 6))
            # squash through gelu so the FD probe sees curvature
            return tensor_sum(ad.gelu(out))

        x.zero_grad()
        w.zero_grad()
        forward().backward()
        fd = finite_difference_grads(lambda: forward().item(),
                                     {"x": x.data, "w": w.data},
                                     sample=6, rng=rng)
        for name, tensor in (("x", x), ("w", w)):
            for i, val in fd[name].items():
                analytic = tensor.grad.ravel()[i]
                assert relative_error(val, analytic) < 1e-4, (op_name, name, i)

    def test_two_layer_composition(self):
        rng = np.random.default_rng(11)
        w1 = ad.parameter(rng.uniform(-2, 2, size=(5, 8)))
        w2 = ad.parameter(rng.uniform(-2, 2, size=(8, 3)))
        x = rng.uniform(-2, 2, size=(4, 5))

        def forward():
            h = ad.gelu(ad.matmul(constant(x), w1))
            return tensor_sum(ad.softmax(ad.matmul(h, w2), axis=-1))

        w1.zero_grad()
        w2.zero_grad()
        forward().backward()
        fd = finite_difference_grads(lambda: forward().item(),
                                     {"w1": w1.data, "w2": w2.data},
                                     sample=8, rng=rng)
        for name, tensor in (("w1", w1), ("w2", w2)):
            for i, val in fd[name].items():
                assert relative_error(val, tensor.grad.ravel()[i]) < 1e-4


# name -> (op over the input tensors, input shapes given the leading size n);
# the odd extents put block edges off any SIMD lane boundary
SPLIT_OPS = {
    "matmul": (ad.matmul, lambda n: [(n, 7, 33), (33, 19)]),
    "matmul_batched": (ad.matmul, lambda n: [(n, 3, 11, 5), (n, 3, 5, 13)]),
    "softmax": (ad.softmax, lambda n: [(n, 3, 11, 13)]),
    "softmax_out": (lambda a: ad.softmax(a, out=a.data), lambda n: [(n, 3, 11, 13)]),
    "gelu": (ad.gelu, lambda n: [(n, 7, 37)]),
    "layer_norm": (ad.layer_norm, lambda n: [(n, 7, 37), (37,), (37,)]),
    "scale": (lambda a: ad.scale(a, 0.37), lambda n: [(n, 7, 37)]),
    "scale_out": (lambda a: ad.scale(a, 0.37, out=a.data), lambda n: [(n, 7, 37)]),
    "scale_loss": (lambda a: ad.scale(a, 1 / 32), lambda n: [()]),
}


@pytest.fixture
def submitted(monkeypatch):
    """The argument tuples of every call cpu_pool()'s executor is handed."""
    calls = []

    class Spy(ThreadPoolExecutor):
        def submit(self, fn, *args):
            calls.append(args)
            return super().submit(fn, *args)

    monkeypatch.setattr(ad, "ThreadPoolExecutor", Spy)
    return calls


class TestSplitOps:
    """Inside cpu_pool() the heavy ops split their leading axis over the workers;
    each must give the bits of its one-block path, forward and backward."""

    @staticmethod
    def _run(op, inputs, g):
        tensors = [ad.parameter(x.copy()) for x in inputs]
        out = op(*tensors)
        return [out.data.copy(), *out._backward(g.copy())]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("name", sorted(SPLIT_OPS))
    def test_blocks_give_the_bits_of_one_block(self, split_pool, submitted, monkeypatch, name, n):
        op, shapes = SPLIT_OPS[name]
        rng = np.random.default_rng(n)
        inputs = [rng.normal(0.0, 3.0, size=shape) for shape in shapes(n)]
        g = rng.normal(size=np.shape(op(*[ad.Tensor(x.copy()) for x in inputs]).data))
        monkeypatch.setattr(ad, "_FLOOR", 1)  # split however small the test arrays are
        with ad.cpu_pool() as pool:
            split = self._run(op, inputs, g)
            blocks = len(submitted)
            # a thread that did not open the pool runs every op as one block
            whole = pool.submit(self._run, op, inputs, g).result()
        assert len(split) == len(whole)
        for got, want in zip(split, whole):
            assert np.array_equal(got, want)
        splits = n > 1 and name != "scale_loss"
        assert (blocks > 0) == splits

    def test_ops_under_the_floor_run_as_one_block(self, split_pool, submitted):
        x = ad.parameter(np.ones((8, 16, 255)))
        assert x.data.size < ad._FLOOR
        with ad.cpu_pool():
            ad.gelu(x)._backward(np.ones_like(x.data))
        assert submitted == []

    def test_threads_opening_it_at_once_share_one_pool_and_close_it(
            self, split_pool, monkeypatch, two_blas_threads):
        monkeypatch.setattr(ad, "_FLOOR", 1)
        pool_threads = ad.pool_threads

        def slow_pool_threads():  # widens the window in which two threads could both open a pool
            time.sleep(1e-4)
            return pool_threads()

        monkeypatch.setattr(ad, "pool_threads", slow_pool_threads)
        x = np.random.default_rng(0).normal(size=(5, 7, 37))
        expected = ad.gelu(ad.Tensor(x)).data
        before = threading.active_count(), blas_threads()
        wrong = []

        def work():
            for i in range(300):
                try:
                    with ad.cpu_pool() as pool:
                        opened_here = ad._pool.owner == threading.get_ident()
                        if i % 10 == 0 and not np.array_equal(ad.gelu(ad.Tensor(x)).data, expected):
                            wrong.append("gelu")
                        if opened_here and (ad._pool.owner, ad._pool.executor) != (threading.get_ident(), pool):
                            wrong.append("another thread took over the pool this one opened")
                except Exception as exc:  # e.g. a pool closed twice
                    wrong.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, daemon=True) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert ad._pool.executor is None
        assert (threading.active_count(), blas_threads()) == before


class TestPoolMemory:
    def test_closing_the_outer_block_trims_the_heap_once(self, monkeypatch):
        """Free heap pages go back to the system when the outermost block
        closes: without it, the train benchmark's peak RSS crept up from one
        command to the next by amounts that depended on how the pool's threads
        had interleaved their allocations."""
        calls = []
        monkeypatch.setattr(ad, "_glibc_malloc", lambda: (lambda *a: calls.append(("mallopt", *a)),
                                                          lambda *a: calls.append(("trim", *a))))
        with ad.cpu_pool():
            with ad.cpu_pool():
                pass
            assert calls == [("mallopt", -8, 1)]
        assert calls == [("mallopt", -8, 1), ("trim", 0)]

    def test_runs_where_libc_has_no_malloc_controls(self, monkeypatch):
        monkeypatch.setattr(ad, "_glibc_malloc", lambda: None)
        with ad.cpu_pool() as pool:
            assert pool.submit(lambda: 7).result() == 7
        assert ad._pool.executor is None
