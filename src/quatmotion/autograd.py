"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor records the op that produced it and a closure computing
vector-Jacobian products for its parents. Calling backward() on a scalar
loss walks the tape in reverse topological order and accumulates gradients
into every leaf created with requires_grad=True. A result none of whose
inputs leads to such a leaf records nothing, so untracked computation
builds no tape.

The op set is exactly what the attention stack needs: broadcast
arithmetic, (batched) matmul, reshape / transpose / slice / concat, relu,
the bounded-phase tanh, row softmax, 1-d convolution over time, layer
normalisation, rotary pair rotation with constant angle tables and right
Hamilton multiplication by a unit axis exponential with learnable angles
(both one call of quaternion.slot_rotate, the only rotation kernel), and
the similarity of query slots with keys spun that way.

objective() gives a tape-built loss the forms numerics.grad_check
evaluates: one tracked value and gradient, and untracked loss probes,
one loss per call or, for a build that takes a leading probe axis, a
batch of them per call.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics, quaternion

__all__ = [
    "Tensor",
    "add", "sub", "mul", "neg", "matmul", "reshape", "transpose",
    "concat", "getitem", "sum_", "mean_", "relu", "pi_tanh",
    "softmax_rows", "conv1d", "layer_norm", "rope_apply", "quat_rotate",
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


class Tensor:
    """A node on the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_track")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        # np.asarray returns a float64 ndarray unchanged; every op hands
        # over one, and skipping the call saves its overhead per node
        if type(data) is np.ndarray and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        track = requires_grad
        if not track:
            for p in _parents:
                if p._track:
                    track = True
                    break
        self._track = track
        # an untracked node can never pass a gradient on, so it keeps no
        # parents and no VJP closure: off the tape, each intermediate is
        # freed as soon as the next op has consumed it
        self._parents = _parents if self._track else ()
        self._vjp = _vjp if self._track else None

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

        # Iterative topological order; recursion would overflow on deep tapes.
        order = []
        seen = set()
        stack = [(self, False)]
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
                if p._track and id(p) not in seen:
                    stack.append((p, False))

        pending = {id(self): seed}
        for node in reversed(order):
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._vjp is None:
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent._track:
                    continue
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + pg
                else:
                    pending[key] = pg

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


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a._track else None,
                _unbroadcast(g, b.data.shape) if b._track else None)

    return Tensor(out, _parents=(a, b), _vjp=vjp)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data - b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a._track else None,
                _unbroadcast(-g, b.data.shape) if b._track else None)

    return Tensor(out, _parents=(a, b), _vjp=vjp)


def neg(a) -> Tensor:
    a = _wrap(a)
    return Tensor(-a.data, _parents=(a,), _vjp=lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a._track else None,
                _unbroadcast(g * a.data, b.data.shape) if b._track else None)

    return Tensor(out, _parents=(a, b), _vjp=vjp)


def matmul(a, b, bias=None) -> Tensor:
    """Matrix product with broadcast leading batch axes, plus an optional bias.

    A 2-D right operand is shared by every row of the left one, so the
    leading axes of `a` fold into its row axis: the forward and both
    gradients are then single 2-D GEMMs, and the weight gradient needs no
    batched product and no reduction over the batch. Only that branch
    takes a bias, of shape (b.shape[-1],): it is added in place into the
    fresh product, so a linear layer is one tape node instead of two.
    """
    a, b = _wrap(a), _wrap(b)
    if b.data.ndim == 2 and a.data.ndim >= 2:
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out = a2 @ b.data
        if bias is None:
            parents = (a, b)
        else:
            bias = _wrap(bias)
            if bias.data.shape != b.data.shape[-1:]:
                raise ValueError(f"bias shape {bias.data.shape} does not match "
                                 f"the {b.data.shape[-1]} output columns")
            out += bias.data
            parents = (a, b, bias)
        out = out.reshape(a.data.shape[:-1] + b.data.shape[-1:])

        def vjp(g):
            g2 = g.reshape(-1, g.shape[-1])
            ga = (g2 @ b.data.T).reshape(a.data.shape) if a._track else None
            gb = a2.T @ g2 if b._track else None
            if bias is None:
                return ga, gb
            return ga, gb, g2.sum(axis=0) if bias._track else None
    elif bias is not None:
        raise ValueError("matmul takes a bias only with a 2-D right operand")
    else:
        out = np.matmul(a.data, b.data)
        parents = (a, b)

        def vjp(g):
            ga = gb = None
            if a._track:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
            if b._track:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
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
    """max(x, 0); a NaN input stays NaN in the output and gets no gradient."""
    a = _wrap(a)

    def vjp(g):
        return (g * (a.data > 0),)

    return Tensor(numerics.relu(a.data), _parents=(a,), _vjp=vjp)


def pi_tanh(a) -> Tensor:
    """pi * tanh(x), squashed into the open interval (-pi, pi)."""
    a = _wrap(a)
    t = np.tanh(a.data)
    out = numerics.pi_tanh(a.data)

    def vjp(g):
        return (g * math.pi * (1.0 - t * t),)

    return Tensor(out, _parents=(a,), _vjp=vjp)


def softmax_rows(a) -> Tensor:
    a = _wrap(a)
    y = numerics.softmax_rows(a.data)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return Tensor(y, _parents=(a,), _vjp=vjp)


def conv1d(x, w, b) -> Tensor:
    """Same-length 1-d convolution over the time axis.

    x: (..., T, C), w: (..., O, C, W) with odd W, b: w.shape[:-2].
    Leading axes broadcast, so one call convolves every head at once.
    The forward is numerics.conv1d_im2col; the VJP reuses its windows, so
    both gradients are matmuls and the input gradient is the W-shift
    scatter of the window gradient back onto the padded time axis.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    width = w.data.shape[-1]
    if width % 2 != 1:
        raise ValueError("kernel width must be odd to preserve length")
    pad = width // 2
    steps, chans = x.data.shape[-2:]
    out, cols = numerics.conv1d_im2col(x.data, w.data, b.data)
    kmat = w.data.reshape(w.data.shape[:-2] + (-1,))

    def vjp(g):
        gx = gw = gb = None
        if x._track:
            gcols = np.matmul(g, kmat).reshape(g.shape[:-1] + (chans, width))
            gxpad = np.zeros(g.shape[:-2] + (steps + 2 * pad, chans))
            for u in range(width):
                gxpad[..., u:u + steps, :] += gcols[..., u]
            gx = _unbroadcast(gxpad[..., pad:pad + steps, :], x.data.shape)
        if w._track:
            gk = np.matmul(np.swapaxes(g, -1, -2), cols)
            gw = _unbroadcast(gk.reshape(gk.shape[:-1] + (chans, width)), w.data.shape)
        if b._track:
            gb = _unbroadcast(g.sum(axis=-2), b.data.shape)
        return gx, gw, gb

    return Tensor(out, _parents=(x, w, b), _vjp=vjp)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to zero mean and unit variance, then affine."""
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
    np.multiply(xhat, gamma.data, out=out)
    out += beta.data

    def vjp(g):
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        dx = g * gamma.data
        tmp = dx * xhat
        m2 = np.add.reduce(tmp, axis=-1, keepdims=True) / n
        dx -= np.add.reduce(dx, axis=-1, keepdims=True) / n
        np.multiply(xhat, m2, out=tmp)
        dx -= tmp
        dx *= inv
        dgamma = dbeta = None
        if gamma._track:
            np.multiply(g, xhat, out=tmp)
            dgamma = _unbroadcast(tmp, gamma.data.shape)
        if beta._track:
            dbeta = _unbroadcast(g, beta.data.shape)
        return dx, dgamma, dbeta

    return Tensor(out, _parents=(x, gamma, beta), _vjp=vjp)


def rope_apply(x, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate interleaved feature pairs by constant per-position angles.

    x: (..., T, d) with even d; cos, sin: (T, d/2) angle tables. The tables
    are positional constants, so no gradient flows into them. The pairs go
    through quaternion.slot_rotate's plane turn; the map is orthogonal, so
    its VJP is the same call with -sin.
    """
    x = _wrap(x)
    cos = np.asarray(cos, dtype=np.float64)
    sin = np.asarray(sin, dtype=np.float64)
    shape = x.data.shape
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
    call with -sin.
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

    def vjp(g):
        # one rotation back by -angle gives the input gradient, and its
        # inner product with x * axis (the derivative direction rotated
        # back) gives the angle gradient
        back = quaternion.slot_rotate(g, co, -si, axis)
        gangle = None
        if angles._track:
            turned = quaternion.quarter_turn(x.data, axis)
            gangle = _unbroadcast(np.einsum("...sc,...sc->...", back, turned),
                                  angles.data.shape)
        return _unbroadcast(back, x.data.shape), gangle

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
    cos and sin. The VJP is one matmul per input plus the mix.
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

    def vjp(g):
        gphi = gk = gangle = None
        gcoef = g[..., None, :] * mix[..., None, :, :]
        gcoef = gcoef.reshape(gcoef.shape[:-3] + (q * 2 * periods, m))
        if phi._track:
            gfeats = np.matmul(gcoef, keys)
            gfeats = gfeats.reshape(gfeats.shape[:-2] + (q, 2, periods, slots, 4))
            gphi = gfeats[..., 0, :, :, :] + quaternion.quarter_turn(
                gfeats[..., 1, :, :, :], axis)
            gphi = _unbroadcast(gphi, phi.data.shape)
        if k._track:
            gkeys = np.matmul(np.swapaxes(gcoef, -1, -2), feats)
            gk = _unbroadcast(gkeys.reshape(gkeys.shape[:-1] + (slots, 4)), k.data.shape)
        if angles._track:
            # d/dangle (c*C + s*S) = -s*C + c*S, with C and S the coefficients
            # summed against the output gradient over the queries
            gmix = np.einsum("...qm,...qjm->...jm", g, coef)
            cos, sin = mix[..., :periods, :], mix[..., periods:, :]
            gturned = cos * gmix[..., periods:, :] - sin * gmix[..., :periods, :]
            gangle = _unbroadcast(np.swapaxes(gturned, -1, -2), angles.data.shape)
        return gphi, gk, gangle

    return Tensor(out, _parents=(phi, k, angles), _vjp=vjp)


def objective(build, batched: bool = False) -> numerics.Objective:
    """The forms numerics.grad_check evaluates of a loss built on the tape.

    build(*tensors) returns a scalar Tensor, one tensor per parameter
    array. value_and_grad wraps the arrays in tracked leaves and runs one
    backward(); a leaf the loss does not reach gets a zero gradient. loss
    wraps them untracked, so it builds no tape and runs no backward; the
    ops compute the same forward either way, so both forms return the
    same loss bit for bit.

    batched=True also supplies losses, grad_check's batched probe form:
    build runs once on untracked tensors that all carry one leading probe
    axis of size K, and must return the K losses. So build has to treat
    that axis as a batch axis throughout: every tensor it makes from the
    parameters or combines with them keeps the leading axis, nothing
    indexes, slices, concatenates or reshapes along it, and the loss is
    reduced over the trailing axes only (mean_(x, axis=(-2, -1)) rather
    than mean_(x)). Ops that line parameters up from the left (a 1-d
    layer_norm gamma, a getitem or concat axis counted from 0) break
    this; leave batched off for such builds.
    """
    def value_and_grad(arrays):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = build(*leaves)
        out.backward()
        return float(out.data), [leaf.grad if leaf.grad is not None
                                 else np.zeros_like(leaf.data) for leaf in leaves]

    def loss(arrays):
        return float(build(*(Tensor(a) for a in arrays)).data)

    def losses(arrays):
        return build(*(Tensor(a) for a in arrays)).data

    return numerics.Objective(value_and_grad, loss, losses if batched else None)
