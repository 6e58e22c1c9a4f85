"""The LSTM cell, its gradients and the loss tensor that carries its own backward pass.

The model's loss has a shape fixed when the code is written: the encoder
feeds the teacher-forced decoder. So there is no graph and no walk. A
training step is two explicit calls, ``loss = model.sentence_loss(...)``
then ``backward(loss)``: the loss ``Tensor`` holds a ``backward_fn`` that
runs the decoder's backpropagation through time and then the encoder's,
each adding its terms in place into the named gradient views
``ModelParameters.g``. The weights are plain named arrays
(``ModelParameters.w``); ``Tensor`` is only the loss.
Forward-only callers (the beam, the validation loss, finite differences)
call the forward and never the backward.

``backward(loss, corrupt_rule=...)`` publishes a rule name for the length
of the pass, and each backward passes the gradient of its named inner
rules through ``corrupted`` (the encoder's incoming gradient, the
decoder's attention ``tanh``); tests use this to prove the finite
difference check actually catches a broken rule.

``Tensor``, ``constant`` and ``backward`` keep these names because the
benchmark's tracer (``perfbench/``) wraps or calls them.
"""

from __future__ import annotations

import numpy as np

# How much ``corrupted`` mis-scales the gradient of the rule a ``backward`` pass corrupts
CORRUPT_SCALE = 2.0

# (rule, scale) of the running ``backward`` pass; see ``corrupted``
_CORRUPT: tuple[str | None, float] = (None, 1.0)


class Tensor:
    """A loss: its value and the function that runs its backward pass."""

    __slots__ = ("data", "backward_fn", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, backward_fn=None):
        self.data = np.asarray(data)
        self.backward_fn = backward_fn
        self.requires_grad = requires_grad


def corrupted(rule: str, g):
    """``g``, mis-scaled when the running ``backward`` corrupts ``rule``."""
    return g * _CORRUPT[1] if rule == _CORRUPT[0] else g


# Not called here: perfbench/tests/test_bench_tracing.py calls ``constant`` to
# check that the tracer counts ``Tensor`` constructions.
def constant(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype))


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


def backward(loss: Tensor, corrupt_rule: str | None = None) -> None:
    """Adds d(loss)/d(weight) into every weight's gradient view through ``loss.backward_fn``.

    ``corrupt_rule`` deliberately mis-scales the gradient of that inner rule
    by ``CORRUPT_SCALE`` (see ``corrupted``) for the length of the pass
    (negative control for the finite-difference check).
    """
    global _CORRUPT
    _CORRUPT = (corrupt_rule, CORRUPT_SCALE)
    try:
        loss.backward_fn(np.ones_like(loss.data))
    finally:
        _CORRUPT = (None, 1.0)
