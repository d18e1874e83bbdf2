"""Tape engine: forward op semantics, backward correctness, stop-gradient."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arforecast.autodiff as autodiff
from arforecast.autodiff import (
    Tape,
    Tensor,
    affine,
    finite_diff_oracle,
    max_relative_error,
    relu,
    rollout_objective,
    slice_axis,
)
from composite_ops import (
    abs_kink_gap,
    absolute,
    add,
    add_column,
    block_error,
    concat,
    layer_norm,
    matmul,
    mean_all,
    mul,
    scale,
    softmax,
    stitch,
    stop_gradient,
    sum_all,
    window_mix,
    window_scores,
)


def test_matmul_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    np.testing.assert_array_equal(matmul(a, b).values, [[3.0], [7.0]])


def test_abs_forward_and_subgradient_at_zero():
    with Tape() as tape:
        x = Tensor([-2.0, 0.0, 5.0], requires_grad=True)
        y = absolute(x)
        np.testing.assert_array_equal(y.values, [2.0, 0.0, 5.0])
        (g,) = tape.gradient(sum_all(y), [x])
        np.testing.assert_array_equal(g, [-1.0, 0.0, 1.0])


def test_softmax_symmetry():
    y = softmax(Tensor([0.0, 0.0]), axis=0)
    np.testing.assert_allclose(y.values, [0.5, 0.5])


def test_relu_backward():
    with Tape() as tape:
        x = Tensor([-1.0, 2.0], requires_grad=True)
        (g,) = tape.gradient(sum_all(relu(x)), [x])
        np.testing.assert_array_equal(g, [0.0, 1.0])


def test_min_kink_gap_reads_relu_and_abs_records():
    # the engine's abs kinks are the penalty gaps e_{k+1} - e_k that rollout_objective saves:
    # here e_1 = (0.25, 4) and e_2 = (0, 2.25) for two 1-row blocks of two windows
    with Tape() as tape:
        assert tape.min_kink_gap == float("inf")
        x = Tensor([[-0.5, 2.0]], requires_grad=True)
        relu(x)
        assert tape.min_kink_gap == 0.5
        rollout_objective([x, Tensor([[0.0, 1.5]])], np.zeros((2, 2)), 1, 0.5, 0.1)
        relu(Tensor([[1e-9]]))  # no tracked input, so no record and no kink
        assert tape.min_kink_gap == 0.25


def test_min_kink_gap_follows_a_swapped_in_rule(monkeypatch):
    # gradcheck's negative control swaps in a wrong relu rule; its records still are kinks
    monkeypatch.setattr(autodiff, "_relu_rule", lambda ctx, g: (2.0 * g * (ctx[0] > 0.0),))
    with Tape() as tape:
        relu(Tensor([[0.125, -3.0]], requires_grad=True))
        assert tape.min_kink_gap == 0.125


def test_mean_backward():
    with Tape() as tape:
        x = Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
        (g,) = tape.gradient(mean_all(x), [x])
        np.testing.assert_array_equal(g, [0.25] * 4)


def test_backward_rejects_non_scalar():
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = add(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.gradient(y, [x])


def test_stop_gradient_forward_bit_identical():
    x = Tensor([1.5, -2.0])
    y = stop_gradient(x)
    assert np.array_equal(x.values, y.values)
    assert y.values.tobytes() == x.values.tobytes()


def test_stop_gradient_partial_flow():
    # d/dx of x * sg(x) at 3 is 3: only the live factor contributes
    with Tape() as tape:
        x = Tensor(3.0, requires_grad=True)
        (g,) = tape.gradient(sum_all(mul(x, stop_gradient(x))), [x])
        assert g == pytest.approx(3.0)


def test_stop_gradient_fully_blocked():
    with Tape() as tape:
        x = Tensor(3.0, requires_grad=True)
        sg = stop_gradient(x)
        (g,) = tape.gradient(sum_all(mul(sg, sg)), [x])
        assert g == 0.0


def test_unreachable_leaf_gets_exact_zero():
    other = Tensor([[7.0]], requires_grad=True)
    with Tape():
        mul(other, other)  # seen by another tape only
    with Tape() as tape:
        x = Tensor([1.0, 2.0], requires_grad=True)
        unreached = Tensor([5.0], requires_grad=True)
        mul(unreached, unreached)  # on this tape, but not an ancestor of the loss
        never_seen = Tensor([3.0, 4.0, 5.0], requires_grad=True)
        grads = tape.gradient(sum_all(x), [unreached, never_seen, other])
    assert [g.shape for g in grads] == [(1,), (3,), (1, 1)]
    assert all(np.all(g == 0.0) for g in grads)


def test_leaf_built_outside_the_tape_gets_the_same_gradient():
    rng = np.random.default_rng(3)
    w_vals, x_vals, m_vals = (rng.normal(size=shape) for shape in ((4, 3), (3, 2), (4, 2)))

    def grad_of_leaf(make_leaf):
        with Tape() as tape:
            w = make_leaf()
            loss = mean_all(mul(relu(matmul(w, Tensor(x_vals))), Tensor(m_vals)))
            return tape.gradient(loss, [w])[0]

    outside = Tensor(w_vals, requires_grad=True)
    g_outside = grad_of_leaf(lambda: outside)
    g_inside = grad_of_leaf(lambda: Tensor(w_vals, requires_grad=True))
    assert np.any(g_outside != 0.0)
    assert g_outside.tobytes() == g_inside.tobytes()


def test_reused_input_accumulates():
    with Tape() as tape:
        x = Tensor(4.0, requires_grad=True)
        (g,) = tape.gradient(sum_all(mul(x, x)), [x])
        assert g == pytest.approx(8.0)


def test_concat_slice_round_trip_gradients():
    with Tape() as tape:
        a = Tensor([[1.0], [2.0]], requires_grad=True)
        b = Tensor([[3.0], [4.0], [5.0]], requires_grad=True)
        joined = concat([a, b], axis=0)
        piece = slice_axis(joined, 0, 1, 4)  # rows 1..3: a[1], b[0], b[1]
        ga, gb = tape.gradient(sum_all(piece), [a, b])
        np.testing.assert_array_equal(ga, [[0.0], [1.0]])
        np.testing.assert_array_equal(gb, [[1.0], [1.0], [0.0]])


def test_stitch_hands_each_block_its_window_rows():
    rows = np.arange(14.0).reshape(7, 2)  # 3 constant rows, then blocks a and b of 2 rows
    with Tape() as tape:
        a = Tensor(rows[3:5], requires_grad=True)
        b = Tensor(rows[5:7], requires_grad=True)
        window = stitch(rows, 4, 7, [a, b])  # cuts a's first row off
        assert np.shares_memory(window.values, rows)
        np.testing.assert_array_equal(window.values, rows[4:7])
        weights = Tensor(np.arange(1.0, 7.0).reshape(3, 2))
        ga, gb = tape.gradient(sum_all(mul(window, weights)), [a, b])
        np.testing.assert_array_equal(ga, [[0.0, 0.0], [1.0, 2.0]])
        np.testing.assert_array_equal(gb, [[3.0, 4.0], [5.0, 6.0]])
        count = len(tape.records)
        assert stitch(rows, 5, 7, [b]) is b  # a window that is one block is that block
        assert np.shares_memory(stitch(rows, 0, 3, []).values, rows)  # constants: no record
        assert len(tape.records) == count
    with pytest.raises(ValueError, match="do not fit"):
        stitch(rows, 5, 8, [b])  # past the buffer
    with pytest.raises(ValueError, match="do not fit"):
        stitch(rows, 5, 7, [a, b])  # a ends where the window starts
    with pytest.raises(ValueError, match="do not fit"):
        stitch(rows, 5, 7, [Tensor(np.zeros((2, 3)))])  # not the buffer's width


@pytest.mark.parametrize("a,b", [((3, 4), (4, 1)), ((3, 4), (1, 4)), ((3, 4), (3, 2)),
                                 ((3, 1), (4, 1)), ((3,), (3, 1)), ((3, 1), (3,)),
                                 ((3, 4), (3, 1)), ((3, 1), (3, 4))])
def test_block_error_rejects_other_shape_mismatches(a, b):
    # pred - truth would broadcast most of these pairs
    with pytest.raises(ValueError, match="block shapes differ"):
        block_error(Tensor(np.zeros(a)), Tensor(np.zeros(b)))


def test_slice_bounds_validated():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        slice_axis(t, 0, 1, 3)
    with pytest.raises(ValueError):
        slice_axis(t, 2, 0, 1)


def _two_layer_mlp_loss(w1, b1, w2, x):
    h = relu(add(matmul(w1, x), b1))
    out = matmul(w2, h)
    return mean_all(mul(out, out))


def test_mlp_gradients_match_oracle():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(4, 1)))
    arrs = [rng.normal(size=(5, 4)), rng.normal(size=(5, 1)), rng.normal(size=(3, 5))]

    with Tape() as tape:
        leaves = [Tensor(a, requires_grad=True) for a in arrs]
        loss = _two_layer_mlp_loss(*leaves, x)
        grads = tape.gradient(loss, leaves)
        assume_gap = tape.min_kink_gap
    assert assume_gap > 1e-3
    flat = np.concatenate([g.ravel() for g in grads])

    sizes = [a.size for a in arrs]

    def eval_at(vec):
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        ts = [Tensor(p.reshape(a.shape)) for p, a in zip(parts, arrs)]
        return _two_layer_mlp_loss(*ts, x).item()

    fd = finite_diff_oracle(eval_at, np.concatenate([a.ravel() for a in arrs]), 1e-4)
    assert max_relative_error(flat, fd) < 1e-5


def test_finite_diff_oracle_quadratic():
    grad = finite_diff_oracle(lambda p: float(p[0] ** 2), np.array([3.0]), 1e-4)
    assert abs(grad[0] - 6.0) < 1e-7


def test_finite_diff_oracle_constant():
    grad = finite_diff_oracle(lambda p: 7.5, np.array([1.0, -2.0, 0.3]), 1e-4)
    np.testing.assert_array_equal(grad, [0.0, 0.0, 0.0])


def test_finite_diff_oracle_abs():
    grad = finite_diff_oracle(lambda p: float(abs(p[0])), np.array([1.0]), 1e-4)
    assert abs(grad[0] - 1.0) < 1e-7


def test_finite_diff_oracle_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_oracle(lambda p: 0.0, np.array([1.0]), 0.0)


def test_tapes_are_independent_across_threads():
    import threading

    results = {}

    def worker(tag, value):
        with Tape() as tape:
            x = Tensor(value, requires_grad=True)
            (g,) = tape.gradient(sum_all(mul(x, x)), [x])
            results[tag] = float(g)

    threads = [threading.Thread(target=worker, args=(i, float(i + 1))) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {0: 2.0, 1: 4.0, 2: 6.0, 3: 8.0}


def test_nested_tapes_record_on_the_innermost_and_restore_the_outer():
    assert autodiff.active_tape() is None
    with Tape() as outer:
        assert autodiff.active_tape() is outer
        with Tape() as inner:
            assert autodiff.active_tape() is inner
        assert autodiff.active_tape() is outer
        with pytest.raises(RuntimeError, match="inner body"):
            with Tape() as inner:
                assert autodiff.active_tape() is inner
                raise RuntimeError("inner body")
        assert autodiff.active_tape() is outer
        x = Tensor(np.ones((1, 1)), requires_grad=True)
        relu(x)
    assert autodiff.active_tape() is None
    assert len(outer.records) == 1 and inner.records == []


def test_tapes_exited_out_of_order_fail_the_assertion():
    outer, inner = Tape(), Tape()
    outer.__enter__()
    inner.__enter__()
    try:
        with pytest.raises(AssertionError):
            outer.__exit__(None, None, None)  # pops inner, which is not outer
    finally:
        outer.__exit__(None, None, None)  # pops outer, the one tape left
    assert autodiff.active_tape() is None


def test_tape_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        with Tape() as tape:
            w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            x = Tensor(rng.normal(size=(3, 2)))
            y = layer_norm(matmul(w, x), axis=0)
            loss = mean_all(mul(softmax(y, axis=1), y))
            (g,) = tape.gradient(loss, [w])
        return g.tobytes()

    assert run() == run()


def _composite(a_vals, b_vals):
    a = Tensor(a_vals, requires_grad=True)
    b = Tensor(b_vals, requires_grad=True)
    m = matmul(a, b)
    s = softmax(m, axis=1)
    ln = layer_norm(m, axis=0)
    mixed = concat([s, ln], axis=1)
    part = slice_axis(mixed, 1, 0, mixed.shape[1] - 1)
    out = add(add(mean_all(mul(part, part)), scale(sum_all(absolute(a)), 0.01)),
              mean_all(relu(b)))
    return out, (a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_composites_match_oracle(seed):
    rng = np.random.default_rng(seed)
    a_vals = rng.uniform(0.5, 2.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
    b_vals = rng.uniform(0.5, 2.0, size=(4, 3)) * rng.choice([-1.0, 1.0], size=(4, 3))

    with Tape() as tape:
        loss, (a, b) = _composite(a_vals, b_vals)
        assume(min(tape.min_kink_gap, abs_kink_gap(tape)) > 1e-3)
        grads = tape.gradient(loss, [a, b])
        assert np.all(np.isfinite(loss.values))
    flat = np.concatenate([g.ravel() for g in grads])

    def eval_at(vec):
        av = vec[:12].reshape(3, 4)
        bv = vec[12:].reshape(4, 3)
        out, _ = _composite(av, bv)
        return out.item()

    # Richardson extrapolation of two central differences cancels their O(h^2)
    # truncation error, which alone exceeds 1e-5 on some smooth draws at h=1e-4.
    base = np.concatenate([a_vals.ravel(), b_vals.ravel()])
    fd_half, fd = (finite_diff_oracle(eval_at, base, h) for h in (5e-5, 1e-4))
    fd = (4.0 * fd_half - fd) / 3.0
    assert max_relative_error(flat, fd) < 1e-5


@pytest.mark.parametrize("h,B,V", [(3, 1, 1), (2, 1, 3), (3, 4, 1), (2, 3, 2)])
def test_window_ops_match_per_window_products(h, B, V):
    rng = np.random.default_rng(10 * B + V)
    q, k, val = (rng.normal(size=(h, B * V)) for _ in range(3))
    attn = rng.normal(size=(B * V, V))
    scores = window_scores(Tensor(q), Tensor(k), V).values
    mixed = window_mix(Tensor(val), Tensor(attn), V).values
    for b in range(B):
        cols, rows = slice(b * V, (b + 1) * V), slice(b * V, (b + 1) * V)
        np.testing.assert_allclose(scores[rows], q[:, cols].T @ k[:, cols], rtol=1e-14)
        np.testing.assert_allclose(mixed[:, cols], val[:, cols] @ attn[rows].T, rtol=1e-14)


@pytest.mark.parametrize("op", [window_scores, window_mix])
@pytest.mark.parametrize("B,V", [(1, 3), (3, 1), (3, 2)])
def test_window_ops_match_oracle(op, B, V):
    rng = np.random.default_rng(B + 7 * V)
    h = 3
    shapes = [(h, B * V), (h, B * V) if op is window_scores else (B * V, V)]
    weight = rng.normal(size=(h, B * V) if op is window_mix else (B * V, V))
    sizes = [int(np.prod(s)) for s in shapes]
    base = rng.normal(size=sum(sizes))

    def loss_of(vec):
        x, y = (Tensor(part.reshape(shape), requires_grad=True)
                for part, shape in zip(np.split(vec, [sizes[0]]), shapes))
        out = op(x, y, V)
        return sum_all(mul(mul(out, out), Tensor(weight))), (x, y)

    with Tape() as tape:
        loss, (x, y) = loss_of(base)
        grads = np.concatenate([g.ravel() for g in tape.gradient(loss, [x, y])])
    fd = finite_diff_oracle(lambda vec: loss_of(vec)[0].item(), base, 1e-4)
    assert max_relative_error(grads, fd) < 1e-6


def test_affine_is_matmul_plus_bias_bitwise():
    rng = np.random.default_rng(5)
    w_vals, x_vals, b_vals = (rng.normal(size=shape) for shape in ((4, 6), (6, 5), (4, 1)))
    results = []
    for layer in (affine, lambda w, x, b: add_column(matmul(w, x), b)):
        with Tape() as tape:
            w, x, b = (Tensor(v, requires_grad=True) for v in (w_vals, x_vals, b_vals))
            y = layer(w, x, b)
            grads = tape.gradient(mean_all(mul(y, y)), [w, x, b])
        results.append([y.values.tobytes()] + [g.tobytes() for g in grads])
    assert results[0] == results[1]


def test_affine_bias_gradient_matches_ones_matmul_bitwise():
    # the bias gradient must reduce exactly as a ones-matrix bias broadcast would, so
    # trained checkpoints do not move by an ulp
    rng = np.random.default_rng(9)
    w_vals, x_vals, b_vals = (rng.normal(size=shape) for shape in ((16, 3), (3, 4), (16, 1)))
    ones = Tensor(np.ones((1, 4)))
    grads = []
    for layer in (affine, lambda w, x, b: add(matmul(w, x), matmul(b, ones))):
        with Tape() as tape:
            b = Tensor(b_vals, requires_grad=True)
            y = layer(Tensor(w_vals), Tensor(x_vals), b)
            grads.append(tape.gradient(mean_all(mul(y, y)), [b])[0])
    assert grads[0].tobytes() == grads[1].tobytes()


def test_affine_matches_oracle():
    rng = np.random.default_rng(6)
    shapes = [(3, 4), (4, 2), (3, 1)]
    sizes = [int(np.prod(s)) for s in shapes]
    weight = Tensor(rng.normal(size=(3, 2)))

    def loss_of(vec):
        w, x, b = (Tensor(part.reshape(shape), requires_grad=True)
                   for part, shape in zip(np.split(vec, np.cumsum(sizes)[:-1]), shapes))
        y = affine(w, x, b)
        return sum_all(mul(mul(y, y), weight)), (w, x, b)

    base = rng.normal(size=sum(sizes))
    with Tape() as tape:
        loss, leaves = loss_of(base)
        grads = np.concatenate([g.ravel() for g in tape.gradient(loss, list(leaves))])
    fd = finite_diff_oracle(lambda vec: loss_of(vec)[0].item(), base, 1e-4)
    assert max_relative_error(grads, fd) < 1e-6


@pytest.mark.parametrize("w,x,b", [((3, 4), (5, 2), (3, 1)), ((3, 4), (4, 2), (3, 2)),
                                   ((3, 4), (4, 2), (4, 1)), ((3, 4), (4,), (3, 1))])
def test_affine_rejects_bad_shapes(w, x, b):
    with pytest.raises(ValueError, match="affine"):
        affine(Tensor(np.zeros(w)), Tensor(np.zeros(x)), Tensor(np.zeros(b)))
