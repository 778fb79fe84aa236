"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor is an array plus, when a gradient can flow through it, a node
on the tape. The node holds its parents' nodes, a closure computing
vector-Jacobian products for them, a leaf flag and the accumulated
gradient; it never refers back to a Tensor. Each VJP closure captures
only the arrays and flags it reads (a saved operand, a mask, a shape),
never an operand Tensor, so a tracked forward keeps alive just what its
backward needs: an intermediate no VJP reads is freed as soon as its
Tensor is dropped. Calling backward() on a scalar loss walks the nodes in
reverse topological order and accumulates gradients into every leaf
created with requires_grad=True. A result none of whose inputs leads to
such a leaf gets no node, so untracked computation builds no tape.

The op set is exactly what the attention stack needs: broadcast
arithmetic, (batched) matmul, reshape / transpose / slice / concat, relu,
row softmax, 1-d convolution over time, QRA's rotation angles (two
convolutions, their activations and the position scaling as one node),
layer normalisation, rotary pair rotation with constant angle tables and
right Hamilton multiplication by a unit axis exponential with learnable
angles (both one call of quaternion.slot_rotate, the only rotation
kernel), and the similarity of query slots with keys spun that way.

objective() gives a tape-built loss the forms numerics.grad_check
evaluates: one tracked value and gradient, and untracked loss probes
over a stack of probe rows, one forward per row or, for a build that
takes a leading probe axis, one forward for the whole stack.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics, quaternion
from .errors import DimensionMismatch

__all__ = [
    "Tensor",
    "add", "sub", "mul", "neg", "matmul", "reshape", "transpose",
    "concat", "getitem", "sum_", "mean_", "relu", "softmax_rows",
    "conv1d", "qra_angles", "layer_norm", "rope_apply", "quat_rotate",
    "rotated_scores", "objective",
]


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape.

    Extra leading axes are summed away; axes the operand holds at size 1
    are reduced by one einsum, which over a short middle axis (the
    decoder's period axis) runs several times faster than
    sum(keepdims=True).
    """
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = [i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s != 1 or gs == 1]
    if len(keep) < g.ndim:
        g = np.einsum(g, list(range(g.ndim)), keep)
    return g.reshape(shape)


class _Node:
    """One tracked result on the tape.

    parents has one entry per operand of the op: that operand's node, or
    None for an operand that needs no gradient. vjp(g) returns one
    gradient (or None) per operand. A leaf (a requires_grad tensor)
    accumulates the gradients that reach it in grad.
    """

    __slots__ = ("parents", "vjp", "leaf", "grad")

    def __init__(self, parents: tuple, vjp, leaf: bool):
        self.parents = parents
        self.vjp = vjp
        self.leaf = leaf
        self.grad = None


class Tensor:
    """An array and, when it is tracked, its node on the tape."""

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        # np.asarray returns a float64 ndarray unchanged; every op hands
        # over one, and skipping the call saves its overhead per node
        if type(data) is np.ndarray and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        track = requires_grad
        if not track:
            for p in _parents:
                if p._node is not None:
                    track = True
                    break
        # an untracked result can never pass a gradient on, so it gets no
        # node: off the tape, each intermediate is freed as soon as the
        # next op has consumed it
        self._node = _Node(tuple(p._node for p in _parents), _vjp, requires_grad) if track else None

    @property
    def _vjp(self):
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node.vjp = vjp

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise AttributeError("an untracked tensor holds no gradient")

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def zero_grad(self):
        self.grad = None

    def backward(self, seed=None):
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without a seed needs a scalar output")
            seed = np.ones_like(self.data)
        seed = np.asarray(seed, dtype=np.float64).reshape(self.data.shape)
        root = self._node
        if root is None:
            return

        # Iterative topological order; recursion would overflow on deep tapes.
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node.parents:
                if p is not None and p not in seen:
                    stack.append((p, False))

        pending = {root: seed}
        for node in reversed(order):
            g = pending.pop(node, None)
            if g is None:
                continue
            if node.leaf:
                node.grad = g if node.grad is None else node.grad + g
            if node.vjp is None:
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None or parent is None:
                    continue
                if parent in pending:
                    pending[parent] = pending[parent] + pg
                else:
                    pending[parent] = pg

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *perm):
        if len(perm) == 1 and isinstance(perm[0], (tuple, list)):
            perm = tuple(perm[0])
        return transpose(self, perm)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _wrap(x) -> Tensor:
    return x if type(x) is Tensor else Tensor(np.asarray(x, dtype=np.float64))


# Every VJP below reads only what it captured: an operand's array where
# the other operand's gradient needs it, shapes, and a per-operand flag
# that is None (or False) when that operand is untracked. None of them
# mentions an operand Tensor.

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    sa = a.data.shape if a._node is not None else None
    sb = b.data.shape if b._node is not None else None

    def vjp(g):
        return (None if sa is None else _unbroadcast(g, sa),
                None if sb is None else _unbroadcast(g, sb))

    return Tensor(a.data + b.data, _parents=(a, b), _vjp=vjp)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    sa = a.data.shape if a._node is not None else None
    sb = b.data.shape if b._node is not None else None

    def vjp(g):
        return (None if sa is None else _unbroadcast(g, sa),
                None if sb is None else _unbroadcast(-g, sb))

    return Tensor(a.data - b.data, _parents=(a, b), _vjp=vjp)


def neg(a) -> Tensor:
    a = _wrap(a)
    return Tensor(-a.data, _parents=(a,), _vjp=lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    sa, sb = a.data.shape, b.data.shape
    # each operand's gradient reads the other operand
    bd = b.data if a._node is not None else None
    ad = a.data if b._node is not None else None

    def vjp(g):
        return (None if bd is None else _unbroadcast(g * bd, sa),
                None if ad is None else _unbroadcast(g * ad, sb))

    return Tensor(a.data * b.data, _parents=(a, b), _vjp=vjp)


def matmul(a, b, bias=None) -> Tensor:
    """Matrix product with broadcast leading batch axes, plus an optional bias.

    A 2-D right operand is shared by every row of the left one, so the
    leading axes of `a` fold into its row axis: the forward and both
    gradients are then single 2-D GEMMs, and the weight gradient needs no
    batched product and no reduction over the batch. Only that branch
    takes a bias, of shape (b.shape[-1],): it is added in place into the
    fresh product, so a linear layer is one tape node instead of two.
    The VJP keeps `b` only if `a` tracks, and `a` only if `b` tracks.
    """
    a, b = _wrap(a), _wrap(b)
    sa, sb = a.data.shape, b.data.shape
    bd = b.data if a._node is not None else None
    if b.data.ndim == 2 and a.data.ndim >= 2:
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out = a2 @ b.data
        if bias is None:
            parents = (a, b)
            bias_grad = None
        else:
            bias = _wrap(bias)
            if bias.data.shape != b.data.shape[-1:]:
                raise ValueError(f"bias shape {bias.data.shape} does not match "
                                 f"the {b.data.shape[-1]} output columns")
            out += bias.data
            parents = (a, b, bias)
            bias_grad = bias._node is not None
        out = out.reshape(a.data.shape[:-1] + b.data.shape[-1:])
        a2 = a2 if b._node is not None else None

        def vjp(g):
            g2 = g.reshape(-1, g.shape[-1])
            ga = None if bd is None else (g2 @ bd.T).reshape(sa)
            gb = None if a2 is None else a2.T @ g2
            if bias_grad is None:
                return ga, gb
            return ga, gb, g2.sum(axis=0) if bias_grad else None
    elif bias is not None:
        raise ValueError("matmul takes a bias only with a 2-D right operand")
    else:
        out = np.matmul(a.data, b.data)
        parents = (a, b)
        ad = a.data if b._node is not None else None

        def vjp(g):
            ga = gb = None
            if bd is not None:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), sa)
            if ad is not None:
                gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), sb)
            return ga, gb

    return Tensor(out, _parents=parents, _vjp=vjp)


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    orig = a.data.shape
    return Tensor(a.data.reshape(shape), _parents=(a,),
                  _vjp=lambda g: (g.reshape(orig),))


def transpose(a, perm) -> Tensor:
    a = _wrap(a)
    perm = tuple(perm)
    return Tensor(a.data.transpose(perm), _parents=(a,),
                  _vjp=lambda g: (g.transpose(tuple(np.argsort(perm))),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor(out, _parents=tuple(tensors), _vjp=vjp)


def getitem(a, idx) -> Tensor:
    """Basic slicing only; fancy index arrays are not supported."""
    a = _wrap(a)
    out = a.data[idx]
    shape = a.data.shape

    def vjp(g):
        full = np.zeros(shape, dtype=np.float64)
        full[idx] += g
        return (full,)

    return Tensor(out, _parents=(a,), _vjp=vjp)


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    axes = _axis_tuple(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)
    shape = a.data.shape

    def vjp(g):
        if not keepdims:
            for ax in sorted(axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, shape).copy(),)

    return Tensor(out, _parents=(a,), _vjp=vjp)


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    axes = _axis_tuple(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def relu(a) -> Tensor:
    """max(x, 0); a NaN input stays NaN in the output and gets no gradient.

    The VJP keeps the output, the array the next op (a matmul operand)
    already keeps, and reads the gradient's mask off it: out > 0 exactly
    where x > 0, NaN included.
    """
    a = _wrap(a)
    out = numerics.relu(a.data)
    if a._node is None:
        return Tensor(out)
    return Tensor(out, _parents=(a,), _vjp=lambda g: (g * (out > 0),))


def softmax_rows(a) -> Tensor:
    a = _wrap(a)
    y = numerics.softmax_rows(a.data)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return Tensor(y, _parents=(a,), _vjp=vjp)


def _conv(x, w, b, x_grad: bool, w_grad: bool, b_grad: bool):
    """Same-length 1-d convolution of arrays, and its VJP.

    x: (..., T, C), w: (..., O, C, W) with odd W, b: w.shape[:-2]; leading
    axes broadcast. The forward is numerics.conv1d_im2col. The VJP returns
    (gx, gw, gb), each None unless its flag is set; both gradients are
    matmuls, and the input gradient is the W-shift scatter of the window
    gradient back onto the padded time axis. It keeps the kernel only for
    gx and the input only for gw, whose windows (W times the input's
    size) it rebuilds, so no window array outlives the forward.
    """
    width = w.shape[-1]
    if width % 2 != 1:
        raise ValueError("kernel width must be odd to preserve length")
    pad = width // 2
    steps, chans = x.shape[-2:]
    out, _ = numerics.conv1d_im2col(x, w, b)
    sx, sw, sb = x.shape, w.shape, b.shape
    kern = w if x_grad else None
    xd = x if w_grad else None

    def vjp(g):
        gx = gw = gb = None
        if kern is not None:
            kmat = kern.reshape(sw[:-2] + (-1,))
            gcols = np.matmul(g, kmat).reshape(g.shape[:-1] + (chans, width))
            gxpad = np.zeros(g.shape[:-2] + (steps + 2 * pad, chans))
            for u in range(width):
                gxpad[..., u:u + steps, :] += gcols[..., u]
            gx = _unbroadcast(gxpad[..., pad:pad + steps, :], sx)
        if xd is not None:
            gk = np.matmul(np.swapaxes(g, -1, -2), numerics.conv_windows(xd, width))
            gw = _unbroadcast(gk.reshape(gk.shape[:-1] + (chans, width)), sw)
        if b_grad:
            gb = _unbroadcast(g.sum(axis=-2), sb)
        return gx, gw, gb

    return out, vjp


def conv1d(x, w, b) -> Tensor:
    """Same-length 1-d convolution over the time axis.

    x: (..., T, C), w: (..., O, C, W) with odd W, b: w.shape[:-2].
    Leading axes broadcast, so one call convolves every head at once.
    Forward and VJP are _conv's.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    out, vjp = _conv(x.data, w.data, b.data,
                     x._node is not None, w._node is not None, b._node is not None)
    return Tensor(out, _parents=(x, w, b), _vjp=vjp)


def qra_angles(z, w_omega, b_omega, w_theta, b_theta, positions, drop: int = 0) -> Tensor:
    """QRA's rotation angles relu(conv_omega(z)) * positions + pi*tanh(conv_theta(z)).

    z: (..., T, C) rows; w_omega, w_theta: (..., P, C, W) kernels and
    b_omega, b_theta: (..., P) biases, whose leading axes broadcast
    against z's as in conv1d; positions: (T - drop,) constants, the factor
    of each output row's frequencies. Both convolutions run over all T
    rows as one, with the kernels stacked; the first `drop` rows are then
    cut, so they only feed the windows of the rows after them. Returns
    (..., T - drop, P).

    One tape node. Its VJP keeps z (through _conv) and the stacked
    pre-activations, and scatters the row gradient into a zero buffer of
    the convolution's shape with +=, as slicing VJPs do, so a -0.0
    gradient entry reaches the convolution as +0.0.
    """
    z, w_omega, b_omega, w_theta, b_theta = (
        _wrap(t) for t in (z, w_omega, b_omega, w_theta, b_theta))
    periods = w_omega.data.shape[-3]
    kern = np.concatenate([w_omega.data, w_theta.data], axis=-3)
    bias = np.concatenate([b_omega.data, b_theta.data], axis=-1)
    conv, conv_vjp = _conv(
        z.data, kern, bias, z._node is not None,
        w_omega._node is not None or w_theta._node is not None,
        b_omega._node is not None or b_theta._node is not None)
    pre = conv[..., drop:, :]
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != pre.shape[-2:-1]:
        raise ValueError(f"positions shape {pos.shape} does not match the "
                         f"{pre.shape[-2]} rows after dropping {drop}")
    pos = pos[:, None]
    out = numerics.relu(pre[..., :periods]) * pos + numerics.pi_tanh(pre[..., periods:])
    shape = conv.shape

    def vjp(g):
        full = np.zeros(shape)
        rows = full[..., drop:, :]
        rows[..., :periods] += g * pos * (pre[..., :periods] > 0)
        t = np.tanh(pre[..., periods:])
        rows[..., periods:] += g * math.pi * (1.0 - t * t)
        gz, gw, gb = conv_vjp(full)
        gwo = gwt = gbo = gbt = None
        if gw is not None:
            gwo, gwt = gw[..., :periods, :, :], gw[..., periods:, :, :]
        if gb is not None:
            gbo, gbt = gb[..., :periods], gb[..., periods:]
        return gz, gwo, gbo, gwt, gbt

    return Tensor(out, _parents=(z, w_omega, b_omega, w_theta, b_theta), _vjp=vjp)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then affine.

    The VJP keeps the normalised input and the inverse deviations, not x.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    # in-place steps on two buffers, in the same order of operations as
    # the textbook expressions, so the results are bit-identical to them;
    # each mean is np.mean's own sum-then-divide without its wrapper
    n = x.data.shape[-1]
    xhat = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / n
    out = np.multiply(xhat, xhat)
    inv = np.add.reduce(out, axis=-1, keepdims=True) / n
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    gd = gamma.data
    np.multiply(xhat, gd, out=out)
    out += beta.data
    sgamma = gd.shape if gamma._node is not None else None
    sbeta = beta.data.shape if beta._node is not None else None

    def vjp(g):
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        dx = g * gd
        tmp = dx * xhat
        m2 = np.add.reduce(tmp, axis=-1, keepdims=True) / n
        dx -= np.add.reduce(dx, axis=-1, keepdims=True) / n
        np.multiply(xhat, m2, out=tmp)
        dx -= tmp
        dx *= inv
        dgamma = dbeta = None
        if sgamma is not None:
            np.multiply(g, xhat, out=tmp)
            dgamma = _unbroadcast(tmp, sgamma)
        if sbeta is not None:
            dbeta = _unbroadcast(g, sbeta)
        return dx, dgamma, dbeta

    return Tensor(out, _parents=(x, gamma, beta), _vjp=vjp)


def rope_apply(x, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate interleaved feature pairs by constant per-position angles.

    x: (..., T, d) with even d; cos, sin: (T, d/2) angle tables, exactly,
    else DimensionMismatch: a table that would broadcast spins every row or
    every pair alike. The tables are positional constants, so no gradient
    flows into them. The pairs go through quaternion.slot_rotate's plane
    turn; the map is orthogonal, so its VJP is the same call with -sin and
    keeps only the tables.
    """
    x = _wrap(x)
    cos = np.asarray(cos, dtype=np.float64)
    sin = np.asarray(sin, dtype=np.float64)
    shape = x.data.shape
    if (len(shape) < 2 or shape[-1] % 2
            or not cos.shape == sin.shape == (shape[-2], shape[-1] // 2)):
        raise DimensionMismatch(f"rope_apply needs rows (..., T, d) with an even d and "
                                f"(T, d/2) cos and sin tables; got rows {shape}, "
                                f"cos {cos.shape}, sin {sin.shape}")
    pairs = shape[:-1] + (shape[-1] // 2, 2)
    out = quaternion.slot_rotate(x.data.reshape(pairs), cos, sin, "plane").reshape(shape)

    def vjp(g):
        return (quaternion.slot_rotate(g.reshape(pairs), cos, -sin, "plane").reshape(shape),)

    return Tensor(out, _parents=(x,), _vjp=vjp)


def quat_rotate(x, angles, axis: str) -> Tensor:
    """Right-multiply quaternion slots by the unit exponential of an axis angle.

    x: (..., S, 4); angles broadcast against the rows x.shape[:-2], one
    angle shared by all S slots of a row. A size-1 row axis of x against a
    full angle axis rotates the same slots once per angle, which is how
    the decoder rotates by every period in one call. The map is
    quaternion.slot_rotate, orthogonal in x, so its transpose is the same
    call with -sin. The VJP keeps x only if the angles track.
    """
    x, angles = _wrap(x), _wrap(angles)
    try:
        np.broadcast_shapes(angles.data.shape, x.data.shape[:-2])
    except ValueError:
        raise ValueError(f"angles shape {angles.data.shape} does not broadcast "
                         f"against rows {x.data.shape[:-2]}") from None
    co = np.cos(angles.data)[..., None]
    si = np.sin(angles.data)[..., None]
    out = quaternion.slot_rotate(x.data, co, si, axis)
    sx, sangles = x.data.shape, angles.data.shape
    xd = x.data if angles._node is not None else None

    def vjp(g):
        # one rotation back by -angle gives the input gradient, and its
        # inner product with x * axis (the derivative direction rotated
        # back) gives the angle gradient
        back = quaternion.slot_rotate(g, co, -si, axis)
        gangle = None
        if xd is not None:
            turned = quaternion.quarter_turn(xd, axis)
            gangle = _unbroadcast(np.einsum("...sc,...sc->...", back, turned), sangles)
        return _unbroadcast(back, sx), gangle

    return Tensor(out, _parents=(x, angles), _vjp=vjp)


def rotated_scores(phi, k, angles, axis: str) -> Tensor:
    """Similarity of query slots with keys spun about an axis, summed over periods.

    phi: (..., Q, P, S, 4), one set of S query slots per period; k: (...,
    M, S, 4), the unspun key slots; angles: (..., M, P), each key's spin
    per period. Leading axes broadcast. Returns (..., Q, M) holding
    sum_p <phi_p, k * e^{axis * angle_p}>.

    The keys are never spun. A unit quaternion moves across the inner
    product, <x, k * (c + s*u)> = c * <x, k> + s * <-x * u, k>, so one
    matmul of the 2P*Q stacked rows [phi_p, -phi_p * u] against the
    unspun keys gives both coefficients, mixed afterwards with each key's
    cos and sin. The VJP is one matmul per input plus the mix; it keeps
    the keys only if phi tracks, the stacked rows only if k tracks and
    the coefficients only if the angles track.
    """
    phi, k, angles = _wrap(phi), _wrap(k), _wrap(angles)
    q, periods, slots = phi.data.shape[-4:-1]
    m = k.data.shape[-3]
    if k.data.shape[-2:] != (slots, 4) or angles.data.shape[-2:] != (m, periods):
        raise ValueError(f"phi {phi.data.shape}, keys {k.data.shape} and angles "
                         f"{angles.data.shape} do not describe the same slots and periods")
    # rows (Q, 2, P): phi's own layout, with the turned copy beside it
    feats = np.empty(phi.data.shape[:-3] + (2, periods, slots, 4))
    feats[..., 0, :, :, :] = phi.data
    np.negative(quaternion.quarter_turn(phi.data, axis), out=feats[..., 1, :, :, :])
    feats = feats.reshape(phi.data.shape[:-4] + (q * 2 * periods, slots * 4))
    keys = k.data.reshape(k.data.shape[:-2] + (slots * 4,))
    coef = np.matmul(feats, np.swapaxes(keys, -1, -2))
    coef = coef.reshape(coef.shape[:-2] + (q, 2 * periods, m))
    turned = np.swapaxes(angles.data, -1, -2)     # (..., P, M)
    mix = np.concatenate([np.cos(turned), np.sin(turned)], axis=-2)    # (..., 2P, M)
    out = np.einsum("...qjm,...jm->...qm", coef, mix)
    sphi, sk, sangles = phi.data.shape, k.data.shape, angles.data.shape
    keys = keys if phi._node is not None else None
    feats = feats if k._node is not None else None
    coef = coef if angles._node is not None else None

    def vjp(g):
        gphi = gk = gangle = None
        gcoef = g[..., None, :] * mix[..., None, :, :]
        gcoef = gcoef.reshape(gcoef.shape[:-3] + (q * 2 * periods, m))
        if keys is not None:
            gfeats = np.matmul(gcoef, keys)
            gfeats = gfeats.reshape(gfeats.shape[:-2] + (q, 2, periods, slots, 4))
            gphi = gfeats[..., 0, :, :, :] + quaternion.quarter_turn(
                gfeats[..., 1, :, :, :], axis)
            gphi = _unbroadcast(gphi, sphi)
        if feats is not None:
            gkeys = np.matmul(np.swapaxes(gcoef, -1, -2), feats)
            gk = _unbroadcast(gkeys.reshape(gkeys.shape[:-1] + (slots, 4)), sk)
        if coef is not None:
            # d/dangle (c*C + s*S) = -s*C + c*S, with C and S the coefficients
            # summed against the output gradient over the queries
            gmix = np.einsum("...qm,...qjm->...jm", g, coef)
            cos, sin = mix[..., :periods, :], mix[..., periods:, :]
            gturned = cos * gmix[..., periods:, :] - sin * gmix[..., :periods, :]
            gangle = _unbroadcast(np.swapaxes(gturned, -1, -2), sangles)
        return gphi, gk, gangle

    return Tensor(out, _parents=(phi, k, angles), _vjp=vjp)


def objective(build, batched: bool = False) -> numerics.Objective:
    """The two forms numerics.grad_check evaluates of a loss built on the tape.

    build(*tensors) returns a scalar Tensor, one tensor per parameter
    array. value_and_grad wraps the arrays in tracked leaves and runs one
    backward(); a leaf the loss does not reach gets a zero gradient.
    losses takes arrays that all carry one leading probe axis of size K
    and returns the K losses. It wraps them untracked, so it builds no
    tape and runs no backward; the ops compute the same forward either
    way, so a probe row at the unperturbed arrays gives value_and_grad's
    loss bit for bit.

    By default losses runs build once per probe row. batched=True runs
    build once on the whole stack, which must then return the K losses.
    So build has to treat that axis as a batch axis throughout: every
    tensor it makes from the parameters or combines with them keeps the
    leading axis, nothing indexes, slices, concatenates or reshapes along
    it, and the loss is reduced over the trailing axes only (mean_(x,
    axis=(-2, -1)) rather than mean_(x)). Count axes from the right
    (x[..., 1:3], concat(axis=-1), mean_(axis=-1)). Broadcasting lines
    operands up from the right, so a parameter with fewer batch axes than
    the operand it meets (a 1-d layer_norm gamma against (B, T, C)
    inputs, conv1d kernels against batched inputs) would put its probe
    axis on one of the other's batch axes: give it size-1 axes after the
    probe axis when batched, as in w[:, None] (or w[:, None, None] for a
    gamma against two batch axes). Every parameter has one axis more in
    the batched form, so build can tell the forms apart by a parameter's
    ndim.
    """
    def value_and_grad(arrays):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = build(*leaves)
        out.backward()
        return float(out.data), [leaf.grad if leaf.grad is not None
                                 else np.zeros_like(leaf.data) for leaf in leaves]

    def losses(arrays):
        if batched:
            return build(*(Tensor(a) for a in arrays)).data
        return np.array([float(build(*map(Tensor, row)).data) for row in zip(*arrays)])

    return numerics.Objective(value_and_grad, losses)
