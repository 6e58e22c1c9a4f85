"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for small recurrent networks: nodes hold a value, an
accumulated gradient, parent references, and a backward rule tag. The
backward pass walks the graph in reverse topological order exactly once.
Gradients accumulate into parent buffers in place, so embedding-row updates
stay sparse. A module-level grad switch lets inference build no graph at all.

The kernel defines no generic ops. A model builds a few fused nodes with
``_make`` from the helpers here (the LSTM cell and its gradients, ``_acc``
and ``_acc_rows``): ``NavigationModel.sentence_loss`` is two nodes, the
encoder and the teacher-forced decoder, each running its own NumPy forward
and backpropagation through time.

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
    __slots__ = ("data", "grad", "parents", "backward_fn", "rule", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, rule: str = "leaf"):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.parents: tuple[Tensor, ...] = ()
        self.backward_fn = None
        self.rule = rule
        self.requires_grad = requires_grad

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
    """(dz, dc_prev) of one step from the gradients dh and dc reaching h and c; one step per row."""
    n = c_prev.shape[-1]
    i, f, g, o = acts[..., :n], acts[..., n : 2 * n], acts[..., 2 * n : 3 * n], acts[..., 3 * n :]
    dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
    dz = np.concatenate([
        dc * g * i * (1.0 - i),
        dc * c_prev * f * (1.0 - f),
        dc * i * (1.0 - g * g),
        dh * tanh_c * o * (1.0 - o),
    ], axis=-1)
    return dz, dc * f


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
