"""Dense float64 kernels underpinning every other module.

Everything here is a pure function over numpy arrays: matrix product,
row-wise softmax, same-padded 1D cross-correlation, the activations used by
the frequency/phase generator, a symmetric matrix square root for the
Fréchet metric, and a central-difference gradient checker.

All computation is 64-bit. Reductions use numpy's fixed evaluation order,
so repeated runs on one machine are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, NonFiniteLoss, NotSymmetric

Array = np.ndarray

# Largest double strictly below pi; pi_tanh clamps into the open interval
# (-pi, pi) because float64 tanh saturates to exactly 1.0 for |x| > ~19.1.
_PI_OPEN = np.nextafter(np.pi, 0.0)


def as_matrix(a) -> Array:
    """Coerce to a 2-D float64 array (the library's Matrix type)."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def matmul(a: Array, b: Array) -> Array:
    """Matrix product A @ B with an explicit inner-dimension check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(
            f"matmul: A is {a.shape[0]}x{a.shape[1]}, B is {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


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


@dataclass
class ConvKernel:
    """Weights of a same-padded 1D convolution along the time axis.

    weights has shape (out_channels, in_channels, width) with odd width;
    index w of the width axis corresponds to time offset w - (width-1)//2.
    """

    weights: Array
    bias: Array

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 3:
            raise DimensionMismatch("ConvKernel weights must be (out, in, width)")
        if self.weights.shape[2] % 2 == 0:
            raise DimensionMismatch("ConvKernel width must be odd")
        if self.bias.shape != (self.weights.shape[0],):
            raise DimensionMismatch("ConvKernel bias must have one entry per out channel")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("ConvKernel weights must be finite")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def width(self) -> int:
        return self.weights.shape[2]


def conv1d(x: Array, kernel: ConvKernel) -> Array:
    """Cross-correlate x (time, in_ch) with the kernel, zero-padded.

    out[t, o] = bias[o] + sum_{c,w} x[t - pad + w, c] * weights[o, c, w]
    with pad = (width-1)//2, so output time length equals input length.
    """
    x = as_matrix(x)
    if x.shape[1] != kernel.in_channels:
        raise DimensionMismatch(
            f"conv1d: input has {x.shape[1]} channels, kernel expects {kernel.in_channels}"
        )
    return conv1d_im2col(x, kernel.weights, kernel.bias)[0]


def conv1d_im2col(x: Array, weights: Array, bias: Array) -> tuple:
    """conv1d core on (..., T, C) inputs; weights (..., O, C, W) broadcast-compatible.

    im2col: row t of the window matrix holds the zero-padded input frames
    t-pad .. t+pad, flattened channel-major to C*W entries, which is the
    memory order of the kernel's trailing (C, W) axes. The convolution is
    then one matmul against the kernel viewed as (..., O, C*W). Returns
    the output (..., T, O) and the windows (..., T, C*W), which the
    autodiff VJP reuses.
    """
    width = weights.shape[-1]
    pad = (width - 1) // 2
    t, c = x.shape[-2:]
    xp = np.zeros(x.shape[:-2] + (t + 2 * pad, c))
    xp[..., pad:pad + t, :] = x
    cols = sliding_window_view(xp, width, axis=-2).reshape(x.shape[:-1] + (c * width,))
    kmat = weights.reshape(weights.shape[:-2] + (-1,))
    out = np.matmul(cols, np.swapaxes(kmat, -1, -2))
    out += bias[..., None, :]
    return out, cols


def sym_sqrt(s: Array, eps: float = 0.0) -> Array:
    """Principal square root of the symmetric matrix S + eps*I.

    Eigendecomposition-based; negative eigenvalues (numerical noise in
    nearly-PSD inputs) are clamped to zero. Result is symmetric PSD.
    """
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise NotSymmetric(f"sym_sqrt: matrix is {s.shape[0]}x{s.shape[1]}, not square")
    asym = np.abs(s - s.T).max() if s.size else 0.0
    if asym > 1e-9:
        raise NotSymmetric(f"sym_sqrt: |S - S^T| reaches {asym:.3e} > 1e-9")
    m = (s + s.T) / 2.0 + eps * np.eye(s.shape[0])
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
        return max(self.errors) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return all(e <= self.tol for e in self.errors)

    def per_param_pass(self) -> list[bool]:
        return [e <= self.tol for e in self.errors]


def grad_check(
    fn,
    params: list[Array],
    h: float = 1e-5,
    tol: float = 1e-4,
    names: list[str] | None = None,
    max_probes_per_param: int | None = None,
    probe_seed: int = 0,
) -> GradReport:
    """Compare fn's analytic gradients against central differences.

    fn(params) must return (loss, grads) where grads matches params in
    shapes. Each parameter coordinate is perturbed by +-h and the numeric
    derivative (f(x+h) - f(x-h)) / 2h is compared to the analytic one with
    relative error |a - n| / max(|a|, |n|, 1e-8).

    For very large parameters, max_probes_per_param limits the sweep to a
    deterministic seeded coordinate subsample.
    """
    params = [np.asarray(p, dtype=np.float64) for p in params]
    if names is None:
        names = [f"param{i}" for i in range(len(params))]

    loss0, grads = fn(params)
    if not np.isfinite(loss0):
        raise NonFiniteLoss(f"objective returned {loss0!r}")
    grads = [np.asarray(g, dtype=np.float64) for g in grads]

    rng = np.random.default_rng(probe_seed)
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
        worst = 0.0
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            lp, _ = fn(params)
            flat[c] = orig - h
            lm, _ = fn(params)
            flat[c] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NonFiniteLoss("objective returned a non-finite value under perturbation")
            numeric = (lp - lm) / (2.0 * h)
            analytic = gflat[c]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
        errors.append(worst)
        probe_counts.append(len(coords))
    return GradReport(names=list(names), errors=errors, tol=tol, probes=probe_counts)
