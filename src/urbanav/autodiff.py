"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for small recurrent networks: nodes hold a value, an
accumulated gradient, parent references, and a backward rule tag. The
backward pass walks the graph in reverse topological order exactly once.
Gradients accumulate into parent buffers in place, so embedding-row updates
stay sparse. Outer-product gradients of a leaf (a weight used once per time
step) are collected during the pass and summed as one matrix product at its
end. A module-level grad switch lets inference build no graph at all.

The ops are few and fused: ``gather``, ``mul``, ``concat``, ``matmul``,
``lstm`` for a whole encoder direction and, built from the helpers here,
the teacher-forced decoder of ``NavigationModel.sentence_loss``.

``backward(root, corrupt_rule=...)`` mis-scales the gradient entering every
node with the named rule tag, and, through ``corrupted``, an inner rule of
that name inside a fused op (the decoder's attention ``tanh``); tests use
this to prove the finite difference check actually catches a broken rule.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_GRAD_ENABLED = True
# (rule, scale) of the running ``backward`` pass; see ``corrupted``
_CORRUPT: tuple[str | None, float] = (None, 1.0)


@contextmanager
def no_grad():
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "parents", "backward_fn", "rule", "requires_grad", "outer_terms")

    def __init__(self, data, requires_grad: bool = False, rule: str = "leaf"):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.parents: tuple[Tensor, ...] = ()
        self.backward_fn = None
        self.rule = rule
        self.requires_grad = requires_grad
        # a leaf's pending outer-product gradient terms, as (left, right) lists
        self.outer_terms: tuple[list, list] | None = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        """Zeroes the gradient, reusing its buffer when there is one."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0)

    def __repr__(self) -> str:
        return f"Tensor(rule={self.rule}, shape={self.data.shape})"


def _make(data, parents, backward_fn, rule: str) -> Tensor:
    if not _GRAD_ENABLED or not any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=False, rule=rule)
    out = Tensor(data, requires_grad=True, rule=rule)
    out.parents = tuple(parents)
    out.backward_fn = backward_fn
    return out


def _acc(parent: Tensor, g) -> None:
    if not parent.requires_grad:
        return
    if parent.grad is None:
        parent.grad = np.zeros_like(parent.data)
    parent.grad += g


def _acc_outer(parent: Tensor, a: np.ndarray, b: np.ndarray) -> None:
    """Adds ``np.outer(a, b)`` to ``parent.grad``; a leaf's terms wait for ``backward``'s end."""
    if not parent.requires_grad:
        return
    if parent.backward_fn is not None:
        _acc(parent, np.outer(a, b))
        return
    if parent.outer_terms is None:
        parent.outer_terms = ([], [])
    parent.outer_terms[0].append(a)
    parent.outer_terms[1].append(b)


def _acc_rows(table: Tensor, ids, g) -> None:
    """Adds ``g`` to rows ``ids`` of ``table.grad``, repeated ids once per occurrence."""
    if not table.requires_grad:
        return
    if table.grad is None:
        table.grad = np.zeros_like(table.data)
    np.add.at(table.grad, ids, g)


def corrupted(rule: str, g):
    """``g``, mis-scaled when the running ``backward`` corrupts ``rule``.

    Fused ops pass the gradient of each inner rule through this, so a
    corrupted rule is caught inside them as it is on a node of its own.
    """
    return g * _CORRUPT[1] if rule == _CORRUPT[0] else g


def constant(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype))


def parameter(data) -> Tensor:
    t = Tensor(np.asarray(data), requires_grad=True, rule="param")
    t.zero_grad()
    return t


# -- elementwise --------------------------------------------------------------


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, a=a, b=b):
        _acc(a, g * b.data)
        _acc(b, g * a.data)

    return _make(a.data * b.data, (a, b), bw, "mul")


# -- shape ---------------------------------------------------------------------


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenation along the last axis."""
    sizes = [p.data.shape[-1] for p in parts]

    def bw(g, parts=tuple(parts), sizes=tuple(sizes)):
        at = 0
        for p, s in zip(parts, sizes):
            _acc(p, g[..., at : at + s])
            at += s

    return _make(np.concatenate([p.data for p in parts], axis=-1), parts, bw, "concat")


def gather(table: Tensor, ids) -> Tensor:
    """Rows ``table[ids]`` (one row for an int id); the gradient stays a sparse row update."""

    def bw(g, table=table, ids=ids):
        _acc_rows(table, ids, g)

    return _make(table.data[ids], (table,), bw, "gather")


# -- linear algebra --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, a=a, b=b):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), bw, "matmul")


# -- recurrent cells ------------------------------------------------------------
#
# Gate order is i, f, g, o: the pre-activation z = sum_k W_k x_k + b splits
# into four blocks, c = f * c_prev + i * g and h = o * tanh(c).


def _lstm_step(z: np.ndarray, c_prev: np.ndarray):
    """(gate activations, c, tanh(c), h) of one step; ``z`` may hold one step per row."""
    n = c_prev.shape[-1]
    acts = 1.0 / (1.0 + np.exp(-z))
    acts[..., 2 * n : 3 * n] = np.tanh(z[..., 2 * n : 3 * n])
    c = acts[..., n : 2 * n] * c_prev + acts[..., :n] * acts[..., 2 * n : 3 * n]
    tanh_c = np.tanh(c)
    return acts, c, tanh_c, acts[..., 3 * n :] * tanh_c


def _lstm_step_grads(acts, c_prev, tanh_c, dh, dc):
    """(dz, dc_prev) of one step from the gradients dh and dc reaching h and c."""
    n = c_prev.shape[0]
    i, f, g, o = acts[:n], acts[n : 2 * n], acts[2 * n : 3 * n], acts[3 * n :]
    dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
    dz = np.concatenate([
        dc * g * i * (1.0 - i),
        dc * c_prev * f * (1.0 - f),
        dc * i * (1.0 - g * g),
        dh * tanh_c * o * (1.0 - o),
    ])
    return dz, dc * f


def lstm(x: Tensor, w_x: Tensor, w_h: Tensor, bias: Tensor, reverse: bool = False) -> Tensor:
    """LSTM over the rows of ``x`` (N x E) from a zero state; N x H hidden states.

    ``reverse`` runs from the last row to the first; output row t is still
    the state at input row t. The inputs are projected with one product,
    and the backward pass takes each weight's gradient as one product over
    the whole sequence.
    """
    xs = x.data[::-1] if reverse else x.data
    n, hidden = xs.shape[0], w_h.data.shape[1]
    zx = xs @ w_x.data.T
    acts = np.empty_like(zx)
    hs = np.zeros((n + 1, hidden), dtype=zx.dtype)  # hs[t], cs[t]: state before row t
    cs = np.zeros((n + 1, hidden), dtype=zx.dtype)
    tanh_c = np.empty((n, hidden), dtype=zx.dtype)
    for t in range(n):
        z = zx[t] + w_h.data @ hs[t]
        z += bias.data
        acts[t], cs[t + 1], tanh_c[t], hs[t + 1] = _lstm_step(z, cs[t])

    def bw(g, x=x, w_x=w_x, w_h=w_h, bias=bias):
        dh_out = g[::-1] if reverse else g
        dz = np.empty_like(acts)
        dh_next = dc_next = 0.0
        for t in range(n - 1, -1, -1):
            dh = dh_out[t] + dh_next
            dz[t], dc_next = _lstm_step_grads(acts[t], cs[t], tanh_c[t], dh, dc_next)
            dh_next = w_h.data.T @ dz[t]
        _acc(w_x, dz.T @ xs)
        _acc(w_h, dz.T @ hs[:-1])
        _acc(bias, dz.sum(axis=0))
        dx = dz @ w_x.data
        _acc(x, dx[::-1] if reverse else dx)

    out = hs[1:][::-1] if reverse else hs[1:]
    return _make(np.ascontiguousarray(out), (x, w_x, w_h, bias), bw, "lstm")


# -- backward pass ------------------------------------------------------------------


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor, corrupt_rule: str | None = None, corrupt_scale: float = 1.5) -> None:
    """Accumulates d(root)/d(leaf) into every reachable leaf's ``grad``.

    ``corrupt_rule`` deliberately mis-scales the gradient at nodes carrying
    that rule tag, and inside fused ops (see ``corrupted``), for the length
    of the pass (negative control for the finite-difference check).
    """
    global _CORRUPT
    if root.data.shape != ():
        raise ValueError("backward expects a scalar root")
    root.grad = np.ones_like(root.data)
    order = _topo_order(root)
    _CORRUPT = (corrupt_rule, corrupt_scale)
    try:
        for node in reversed(order):
            if node.backward_fn is None or node.grad is None:
                continue
            node.backward_fn(corrupted(node.rule, node.grad))
    finally:
        _CORRUPT = (None, 1.0)
        for node in order:
            if node.outer_terms is not None:
                left, right = node.outer_terms
                node.outer_terms = None
                _acc(node, np.stack(left, axis=1) @ np.stack(right))
