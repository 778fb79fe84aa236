"""Independent references for the `verify` suites, unit tests and criteria.

hamilton4 is the written-out Hamilton product of two quaternions given
as 4-tuples, the reference for quaternion.hamilton and the slot turns
the model runs. rope spins rows' feature pairs, read as complex numbers,
to explicit positions at RoFormer's base ROPE_BASE: the one reference for
the model's rotary kernel, with its own copy of the base, so a change to
the package's spe.DEFAULT_BASE shows as a disagreement.
reference_qra is quaternion rotary attention of one head in plain Python
floats and index loops (hamilton4, padded convolution and softmax); it
reads a head as the dict qra documents, "wq", "wk", "wv" and the eight
omega/theta kernel arrays. canonical_attention is softmax attention of
einsum heads in plain numpy, spun by rope where asked; QRA with zero
kernels must reduce to it. reference_forward is the whole model, with
or without QRA, in plain numpy: canonical_attention spun by rope in the
encoders, and a decoder run on every motion row whose attention is
reference_qra per head (or canonical_attention without QRA). The module
imports only math and numpy, never the package, so agreement with it
pins the package to a separate derivation rather than to itself.
"""

import math

import numpy as np

# RoFormer's base (arXiv 2104.09864) of the per-pair frequency ladder
ROPE_BASE = 10000.0


# ------------------------------------------------ quaternion rotary attention

def hamilton4(a, b):
    """Product of two quaternions given as 4-tuples (e, f, g, h)."""
    ae, af, ag, ah = a
    be, bf, bg, bh = b
    return (
        ae * be - af * bf - ag * bg - ah * bh,
        ae * bf + af * be + ag * bh - ah * bg,
        ae * bg - af * bh + ag * be + ah * bf,
        ae * bh + af * bg - ag * bf + ah * be,
    )


def axis_unit(axis, angle):
    """cos(angle) + sin(angle) on imaginary axis 'i', 'j' or 'k'."""
    c, s = math.cos(angle), math.sin(angle)
    return {"i": (c, s, 0.0, 0.0), "j": (c, 0.0, s, 0.0), "k": (c, 0.0, 0.0, s)}[axis]


def project_rows(rows, w):
    return [[sum(row[i] * w[i][o] for i in range(len(w))) for o in range(len(w[0]))]
            for row in rows]


def conv_same(rows, weights, bias):
    """Zero-padded same-length 1-D convolution; weights[o][c][u]."""
    steps, chans = len(rows), len(rows[0])
    width = len(weights[0][0])
    half = width // 2
    out = []
    for t in range(steps):
        vals = []
        for o in range(len(weights)):
            acc = bias[o]
            for u in range(width):
                src = t + u - half
                if 0 <= src < steps:
                    for c in range(chans):
                        acc += weights[o][c][u] * rows[src][c]
            vals.append(acc)
        out.append(vals)
    return out


def softmax_row(vals):
    peak = max(vals)
    exps = [math.exp(v - peak) for v in vals]
    total = sum(exps)
    return [e / total for e in exps]


def rotate_series(rows, omega, theta, axis, periods):
    """Per period: every 4-slot of row n right-multiplied by the unit
    exponential at angle 2*pi*omega[n][p]*(n/N) + theta[n][p]."""
    steps = len(rows)
    series = []
    for p in range(periods):
        rotated = []
        for n in range(steps):
            unit = axis_unit(axis, 2.0 * math.pi * omega[n][p] * (float(n) / steps)
                             + theta[n][p])
            rotated.append([hamilton4(tuple(rows[n][4 * s:4 * s + 4]), unit)
                            for s in range(len(rows[n]) // 4)])
        series.append(rotated)
    return series


def similarity(phi, psi, d_attn, periods):
    """Sum over periods and slots of Re[phi (x) conj(psi)], / (P sqrt(d))."""
    scale = 1.0 / (periods * math.sqrt(d_attn))
    sims = []
    for n in range(len(phi[0])):
        row = []
        for m in range(len(psi[0])):
            acc = 0.0
            for p in range(periods):
                for a, b in zip(phi[p][n], psi[p][m]):
                    acc += hamilton4(a, (b[0], -b[1], -b[2], -b[3]))[0]
            row.append(acc * scale)
        sims.append(row)
    return sims


def _listify(a):
    try:
        return [_listify(v) for v in a]
    except TypeError:
        return float(a)


def reference_qra(x, y, head, key_axis="j"):
    """Full pipeline: project, generate freq/phase, rotate, score, mix.

    head maps "wq", "wk" and "wv" to (d_model, d_attn) projections and
    "omega_q.w", "omega_q.b", "theta_q.w", ... "theta_k.b" to the kernels'
    weights (P, d_attn, width) and biases (P,). Returns the (N, d_attn) rows.
    """
    x, y = _listify(x), _listify(y)
    q_rows = project_rows(x, _listify(head["wq"]))
    k_rows = project_rows(y, _listify(head["wk"]))
    v_rows = project_rows(y, _listify(head["wv"]))
    periods = len(head["omega_q.b"])

    def conv(rows, name):
        return conv_same(rows, _listify(head[name + ".w"]), _listify(head[name + ".b"]))

    def spun(rows, side, axis):
        omega = [[max(0.0, v) for v in row] for row in conv(rows, "omega_" + side)]
        theta = [[math.pi * math.tanh(v) for v in row] for row in conv(rows, "theta_" + side)]
        return rotate_series(rows, omega, theta, axis, periods)

    sims = similarity(spun(q_rows, "q", "i"), spun(k_rows, "k", key_axis),
                      len(q_rows[0]), periods)
    out = []
    for n in range(len(q_rows)):
        weights = softmax_row(sims[n])
        out.append([sum(weights[m] * v_rows[m][c] for m in range(len(k_rows)))
                    for c in range(len(q_rows[0]))])
    return np.array(out)


# ------------------------------------------------------ canonical transformer

def _layer_norm(x, gamma, beta):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5) * gamma + beta


def rope(x, positions):
    """Rows x (T, ..., d) with row t's pairs (x[2i], x[2i+1]) read as complex
    numbers and spun by positions[t] * ROPE_BASE**(-2i/d)."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    freqs = ROPE_BASE ** (-2.0 * np.arange(d // 2) / d)
    pos = np.asarray(positions, dtype=np.float64).reshape((-1,) + (1,) * (x.ndim - 1))
    z = (x[..., 0::2] + 1j * x[..., 1::2]) * np.exp(1j * pos * freqs)
    out = np.empty_like(x)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def _softmax(a):
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def canonical_attention(x_q, x_kv, head, heads=1, spin=False):
    """Softmax attention of x_q's rows over x_kv's, before any output
    projection. head maps "wq", "wk" and "wv" to (d_model, d_attn)
    projections, whose d_attn columns split into `heads` equal heads;
    with spin, each head's queries and keys are first spun by rope at
    their row positions. Returns the (N, d_attn) rows, heads side by
    side."""
    q, k, v = ((x @ head[name]).reshape(len(x), heads, -1)
               for x, name in ((x_q, "wq"), (x_kv, "wk"), (x_kv, "wv")))
    if spin:
        q = rope(q, np.arange(len(q)))
        k = rope(k, np.arange(len(k)))
    logits = np.einsum("thd,shd->hts", q, k) / math.sqrt(q.shape[-1])
    return np.einsum("hts,shd->thd", _softmax(logits), v).reshape(len(x_q), -1)


def _attention(x_q, x_kv, w, prefix, heads, spin=False):
    head = {name: w[f"{prefix}.{name}"] for name in ("wq", "wk", "wv")}
    return canonical_attention(x_q, x_kv, head, heads, spin) @ w[prefix + ".wo"]


def _qra_attention(x_q, x_kv, w, prefix, heads):
    """reference_qra on each head's slice of the layer, concatenated and
    projected by wo."""
    dh = x_q.shape[1] // heads
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        head = {name: w[f"{prefix}.{name}"][:, cols] for name in ("wq", "wk", "wv")}
        head.update({f"{kern}.{part}": w[f"{prefix}.{kern}.{part}"][h]
                     for kern in ("omega_q", "theta_q", "omega_k", "theta_k") for part in "wb"})
        outs.append(reference_qra(x_q, x_kv, head))
    return np.concatenate(outs, axis=1) @ w[prefix + ".wo"]


def reference_forward(weights, config, motion, audio):
    """Predicted (N, motion dims) frames of one sequence, with or without QRA.

    weights maps names to objects holding a `.data` array (the model's
    tensors); config is read by attribute. The decoder runs on every
    motion row, and its attention is reference_qra per head with QRA,
    einsum heads without.
    """
    w = {name: t.data for name, t in weights.items()}

    def norm(x, name):
        return _layer_norm(x, w[name + ".gamma"], w[name + ".beta"])

    def ff(x, prefix):
        h = np.maximum(x @ w[prefix + ".fc1.w"] + w[prefix + ".fc1.b"], 0.0)
        return h @ w[prefix + ".fc2.w"] + w[prefix + ".fc2.b"]

    streams = {}
    for name, x in (("motion", motion), ("audio", audio)):
        h = x @ w[f"embed.{name}.w"] + w[f"embed.{name}.b"] + w[f"pos.{name}"][:len(x)]
        for layer in range(config.encoder_layers):
            p = f"enc.{name}.{layer}"
            hn = norm(h, p + ".ln1")
            h = h + _attention(hn, hn, w, p + ".attn", config.heads, spin=config.use_spe)
            h = h + ff(norm(h, p + ".ln2"), p + ".ff")
        if config.encoder_layers > 0:
            h = norm(h, f"enc.{name}.norm")
        streams[name] = h
    memory = np.vstack([streams["motion"], streams["audio"]])
    state = streams["motion"]
    for layer in range(config.decoder_layers):
        p = f"dec.{layer}"
        x_q = norm(state, p + ".ln1")
        if config.use_qra:
            state = state + _qra_attention(x_q, memory, w, p + ".attn", config.heads)
        else:
            state = state + _attention(x_q, memory, w, p + ".attn", config.heads)
        state = state + ff(norm(state, p + ".ln2"), p + ".ff")
    flat = state[-1] @ w["out.w"] + w["out.b"]
    return flat.reshape(config.future_frames, -1)
