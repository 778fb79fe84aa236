"""Dense float64 kernels underpinning every other module.

Everything here is a pure function over numpy arrays: row-wise softmax,
same-padded 1D cross-correlation, the activations used by the
frequency/phase generator, a symmetric matrix square root for the
Fréchet metric, and a central-difference gradient checker.

All computation is 64-bit. Reductions use numpy's fixed evaluation order,
so repeated runs on one machine are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFiniteLoss, NotSymmetric

Array = np.ndarray

# Largest double strictly below pi; pi_tanh clamps into the open interval
# (-pi, pi) because float64 tanh saturates to exactly 1.0 for |x| > ~19.1.
_PI_OPEN = np.nextafter(np.pi, 0.0)


def softmax_rows(m: Array) -> Array:
    """Row-wise softmax with per-row max subtraction for stability."""
    m = np.asarray(m, dtype=np.float64)
    e = m - m.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def relu(x: Array) -> Array:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def pi_tanh(x: Array) -> Array:
    """pi * tanh(x), clamped into the open interval (-pi, pi).

    The clamp only acts where tanh has already saturated to +-1.0 in
    float64, keeping the strict range guarantee of the phase generator.
    """
    y = np.pi * np.tanh(np.asarray(x, dtype=np.float64))
    return np.clip(y, -_PI_OPEN, _PI_OPEN)


def conv_windows(x: Array, width: int) -> Array:
    """im2col windows (..., T, C*W) of x (..., T, C) for an odd width W.

    Row t holds the zero-padded input frames t-pad .. t+pad, flattened
    channel-major to C*W entries, which is the memory order of a kernel's
    trailing (C, W) axes.
    """
    pad = (width - 1) // 2
    t, c = x.shape[-2:]
    # tap u of row s reads frame s - pad + u; rows whose frame falls
    # outside 0 .. t-1 keep the buffer's zeros
    cols = np.zeros(x.shape[:-1] + (c, width))
    for u in range(width):
        lo, hi = max(0, pad - u), min(t, t + pad - u)
        if lo < hi:
            cols[..., lo:hi, :, u] = x[..., lo - pad + u:hi - pad + u, :]
    return cols.reshape(x.shape[:-1] + (c * width,))


def conv1d_im2col(x: Array, weights: Array, bias: Array) -> Array:
    """Same-padded conv1d on (..., T, C) inputs; weights (..., O, C, W) broadcast-compatible.

    The convolution is one matmul of the conv_windows against the kernel
    viewed as (..., O, C*W). Returns the output (..., T, O).
    """
    kmat = weights.reshape(weights.shape[:-2] + (-1,))
    out = np.matmul(conv_windows(x, weights.shape[-1]), np.swapaxes(kmat, -1, -2))
    out += bias[..., None, :]
    return out


def sym_sqrt(s: Array) -> Array:
    """Principal square root of the symmetric matrix S.

    Eigendecomposition-based; negative eigenvalues (numerical noise in
    nearly-PSD inputs) are clamped to zero. Result is symmetric PSD.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2:
        raise DimensionMismatch(f"sym_sqrt: expected a 2-D matrix, got ndim={s.ndim}")
    if s.shape[0] != s.shape[1]:
        raise NotSymmetric(f"sym_sqrt: matrix is {s.shape[0]}x{s.shape[1]}, not square")
    asym = np.abs(s - s.T).max() if s.size else 0.0
    if asym > 1e-9:
        raise NotSymmetric(f"sym_sqrt: |S - S^T| reaches {asym:.3e} > 1e-9")
    m = (s + s.T) / 2.0
    evals, evecs = np.linalg.eigh(m)
    root = np.sqrt(np.maximum(evals, 0.0))
    out = (evecs * root) @ evecs.T
    return (out + out.T) / 2.0


@dataclass
class GradReport:
    """Outcome of a central-difference gradient check."""

    names: list[str]
    errors: list[float]  # max relative error per parameter
    tol: float
    probes: list[int] = field(default_factory=list)

    @property
    def max_error(self) -> float:
        # np.max, unlike max(), returns NaN if any error is NaN
        return float(np.max(self.errors)) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return all(e <= self.tol for e in self.errors)


class Objective(NamedTuple):
    """A scalar loss in the two forms grad_check evaluates.

    value_and_grad(params) returns (loss, grads), grads matching params in
    shape. losses(params) evaluates the loss alone, without the work of a
    gradient, at K points at once: every array of params carries one
    leading probe axis of size K, and it returns the K losses, each the
    same function as value_and_grad's loss of that probe's arrays.
    autograd.objective builds both from one tape expression.
    """

    value_and_grad: Callable
    losses: Callable


# Most elements one probe stack may hold: a parameter's 2k perturbed
# copies are cut into chunks of at most this many elements (two rows at
# the least), so no objective is handed 2n copies of an n-element
# parameter at once.
PROBE_STACK_ELEMENTS = 1 << 16
# grad_check's central-difference step h
GRAD_CHECK_STEP = 1e-5


def _probes(objective: Objective, params: list, idx: int, coords, h: float):
    """Losses at +h and -h on each coordinate, one objective.losses call
    per chunk of coordinates.

    A chunk of m coordinates is a stack of 2m copies of the parameter,
    the +h rows first and then the -h rows, each with one coordinate
    moved; every other parameter is a read-only broadcast view.
    """
    p = params[idx]
    n = p.size
    flat = p.reshape(-1)
    per_chunk = max(1, PROBE_STACK_ELEMENTS // (2 * n))
    plus, minus = np.empty(len(coords)), np.empty(len(coords))
    for lo in range(0, len(coords), per_chunk):
        cs = coords[lo:lo + per_chunk]
        m = len(cs)
        stack = np.empty((2 * m, n))
        stack[:] = flat
        rows = np.arange(m)
        stack[rows, cs] = flat[cs] + h
        stack[m + rows, cs] = flat[cs] - h
        batch = [np.broadcast_to(q, (2 * m,) + q.shape) for q in params]
        batch[idx] = stack.reshape((2 * m,) + p.shape)
        out = np.asarray(objective.losses(batch), dtype=np.float64)
        if out.shape != (2 * m,):
            raise DimensionMismatch(
                f"grad_check: losses returned shape {out.shape} for {2 * m} probes")
        if not np.isfinite(out).all():
            raise NonFiniteLoss("objective returned a non-finite value under perturbation")
        plus[lo:lo + m], minus[lo:lo + m] = out[:m], out[m:]
    return plus, minus


def grad_check(
    objective: Objective,
    params: list[Array],
    tol: float = 1e-4,
    names: list[str] | None = None,
    max_probes_per_param: int | None = None,
) -> GradReport:
    """Compare an objective's analytic gradients against central differences.

    Probe contract: objective.value_and_grad is called exactly once, at
    the unperturbed params, and supplies the analytic gradient and the
    reference loss. The probes then evaluate the loss alone: per
    parameter, the +h and -h copies of every probed coordinate, with
    h = GRAD_CHECK_STEP, are stacked on a leading probe axis, +h rows
    first, and evaluated by one objective.losses call, while the other
    parameters are passed as read-only broadcast views of the same
    length. Stacks are cut into chunks of at most PROBE_STACK_ELEMENTS
    elements (two rows at the least), so an n-element parameter never
    costs 2n*n floats at once.

    The numeric derivative (f(x+h) - f(x-h)) / 2h is compared to the
    analytic one with relative error |a - n| / max(|a|, |n|, 1e-8); a
    NaN error (from a NaN analytic gradient) propagates into the report
    and fails it.

    For very large parameters, max_probes_per_param limits the sweep to a
    deterministic seeded coordinate subsample.
    """
    params = [np.asarray(p, dtype=np.float64) for p in params]
    if names is None:
        names = [f"param{i}" for i in range(len(params))]

    loss0, grads = objective.value_and_grad(params)
    if not np.isfinite(loss0):
        raise NonFiniteLoss(f"objective returned {loss0!r}")
    grads = [np.asarray(g, dtype=np.float64) for g in grads]

    rng = np.random.default_rng(0)
    errors: list[float] = []
    probe_counts: list[int] = []
    for idx, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise DimensionMismatch(
                f"grad_check: gradient {idx} has shape {g.shape}, parameter {p.shape}"
            )
        n = p.size
        if max_probes_per_param is not None and n > max_probes_per_param:
            coords = np.sort(rng.choice(n, size=max_probes_per_param, replace=False))
        else:
            coords = np.arange(n)
        plus, minus = _probes(objective, params, idx, coords, GRAD_CHECK_STEP)
        numeric = (plus - minus) / (2.0 * GRAD_CHECK_STEP)
        analytic = g.reshape(-1)[coords]
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        errors.append(float(np.max(np.abs(analytic - numeric) / denom, initial=0.0)))
        probe_counts.append(len(coords))
    return GradReport(names=list(names), errors=errors, tol=tol, probes=probe_counts)
