"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for small recurrent networks: nodes hold a value, an
accumulated gradient, parent references, and a backward rule tag. The
backward pass walks the graph in reverse topological order exactly once.
Gradients accumulate into parent buffers in place, so embedding-row updates
stay sparse. A module-level grad switch lets inference build no graph at all.

``backward(root, corrupt_rule=...)`` scales the gradient flowing through
every node with the named rule tag; tests use this to prove the finite
difference check actually catches a broken backward rule.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_GRAD_ENABLED = True


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
        self.grad = np.zeros_like(self.data)

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


def constant(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype))


def parameter(data) -> Tensor:
    t = Tensor(np.asarray(data), requires_grad=True, rule="param")
    t.zero_grad()
    return t


# -- elementwise --------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, a=a, b=b):
        _acc(a, g)
        _acc(b, g)

    return _make(a.data + b.data, (a, b), bw, "add")


def add_n(tensors: list[Tensor]) -> Tensor:
    if len(tensors) == 1:
        return tensors[0]

    def bw(g, tensors=tuple(tensors)):
        for t in tensors:
            _acc(t, g)

    total = tensors[0].data.copy()
    for t in tensors[1:]:
        total += t.data
    return _make(total, tensors, bw, "add_n")


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, a=a, b=b):
        _acc(a, g * b.data)
        _acc(b, g * a.data)

    return _make(a.data * b.data, (a, b), bw, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    def bw(g, a=a, c=c):
        _acc(a, g * c)

    return _make(a.data * c, (a,), bw, "scale")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def bw(g, a=a, y=out_data):
        _acc(a, g * (1.0 - y * y))

    return _make(out_data, (a,), bw, "tanh")


def sigmoid(a: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def bw(g, a=a, y=out_data):
        _acc(a, g * y * (1.0 - y))

    return _make(out_data, (a,), bw, "sigmoid")


def softmax(a: Tensor) -> Tensor:
    """Softmax of a 1-D vector."""
    z = a.data - a.data.max()
    e = np.exp(z)
    out_data = e / e.sum()

    def bw(g, a=a, y=out_data):
        _acc(a, y * (g - np.dot(g, y)))

    return _make(out_data, (a,), bw, "softmax")


# -- shape ---------------------------------------------------------------------


def concat(parts: list[Tensor]) -> Tensor:
    sizes = [p.data.shape[0] for p in parts]

    def bw(g, parts=tuple(parts), sizes=tuple(sizes)):
        at = 0
        for p, s in zip(parts, sizes):
            _acc(p, g[at : at + s])
            at += s

    return _make(np.concatenate([p.data for p in parts]), parts, bw, "concat")


def slice1(a: Tensor, start: int, stop: int) -> Tensor:
    def bw(g, a=a, start=start, stop=stop):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[start:stop] += g

    return _make(a.data[start:stop], (a,), bw, "slice1")


def stack_rows(rows: list[Tensor]) -> Tensor:
    def bw(g, rows=tuple(rows)):
        for i, r in enumerate(rows):
            _acc(r, g[i])

    return _make(np.stack([r.data for r in rows]), rows, bw, "stack_rows")


def row(a: Tensor, i: int) -> Tensor:
    """Single row of a matrix; the gradient stays a sparse row update."""

    def bw(g, a=a, i=i):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[i] += g

    return _make(a.data[i], (a,), bw, "row")


# -- linear algebra --------------------------------------------------------------


def mv(m: Tensor, v: Tensor) -> Tensor:
    """Matrix-vector product M @ v."""

    def bw(g, m=m, v=v):
        _acc(m, np.outer(g, v.data))
        _acc(v, m.data.T @ g)

    return _make(m.data @ v.data, (m, v), bw, "mv")


def vm(v: Tensor, m: Tensor) -> Tensor:
    """Vector-matrix product v @ M."""

    def bw(g, v=v, m=m):
        _acc(v, m.data @ g)
        _acc(m, np.outer(v.data, g))

    return _make(v.data @ m.data, (v, m), bw, "vm")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, a=a, b=b):
        _acc(a, g @ b.data.T)
        _acc(b, a.data.T @ g)

    return _make(a.data @ b.data, (a, b), bw, "matmul")


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Adds a vector to every row of a matrix."""

    def bw(g, m=m, v=v):
        _acc(m, g)
        _acc(v, g.sum(axis=0))

    return _make(m.data + v.data, (m, v), bw, "add_rowvec")


def vsum(a: Tensor) -> Tensor:
    """Sum of all elements; scalar output."""

    def bw(g, a=a):
        _acc(a, np.broadcast_to(g, a.data.shape))

    return _make(np.asarray(a.data.sum()), (a,), bw, "vsum")


# -- losses -----------------------------------------------------------------------


def nll(logits: Tensor, target: int) -> Tensor:
    """Negative log-likelihood of ``target`` under softmax(logits); scalar."""
    z = logits.data - logits.data.max()
    lse = np.log(np.exp(z).sum())
    out_data = np.asarray(lse - z[target])

    def bw(g, logits=logits, target=target, z=z, lse=lse):
        p = np.exp(z - lse)
        p[target] -= 1.0
        _acc(logits, g * p)

    return _make(out_data, (logits,), bw, "nll")


def log_probs(logits: Tensor) -> np.ndarray:
    """Log-softmax of raw logits data; plain numpy, no graph."""
    z = logits.data - logits.data.max()
    return z - np.log(np.exp(z).sum())


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
    that rule tag (negative control for the finite-difference check).
    """
    if root.data.shape != ():
        raise ValueError("backward expects a scalar root")
    root.grad = np.ones_like(root.data)
    for node in reversed(_topo_order(root)):
        if node.backward_fn is None or node.grad is None:
            continue
        g = node.grad
        if corrupt_rule is not None and node.rule == corrupt_rule:
            g = g * corrupt_scale
        node.backward_fn(g)
