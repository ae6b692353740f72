"""Minimal reverse-mode automatic differentiation over numpy arrays.

Exactly the operations the evaluator's model and losses need, nothing
more.  Every op builds a node in an acyclic graph whose backward
function returns one gradient per input, in the order the op passed its
inputs.  ``Tensor.backward`` on a scalar loss walks the graph in reverse
topological order and is the only code that adds those gradients up, so
``Tensor.grad`` is a result to read, not a buffer to write into: it may
share memory with another tensor's gradient.  Only leaves keep it: a node's
gradient, closure and saved arrays are freed once its backward has run, so
the walk's peak stays near what the forward left live; a graph is walked once.

The tape holds sixteen ops: ``add``, ``mul``, ``linear``, ``reshape``,
``sum``, ``mean``, ``log``, ``relu``, ``sigmoid``, ``softmax``,
``embedding``, ``token_nll``, ``layer_norm``, ``window_attention``,
``attention`` and ``dropout``.  Every weight product is ``linear``: one
node, one 2-D GEMM per operand each way, the bias folded in.  There is no
``matmul`` op and no ``@`` on tensors; both attention ops run their own
arrays through one softmax-dropout-V kernel, ``_attend``/``_attend_grads``.
``Tensor[rows]`` is an ``embedding`` gather of whole rows by an int or an
integer array, the one indexing the tensors support.  The encoder's
``window_attention`` takes and returns packed rows, only the real tokens
of a padded batch, so every op around it runs on (N, d) rows.  The comment
NLL is one fused ``token_nll`` node (``Model.encoded_comment_nll``); the
other losses' cross-entropies use a clamped ``log``.
``forward_backward`` drops the parameters' old gradients before it
backpropagates, so a training step never resets them itself.

Dtype follows the arrays you pass in: build parameters in float32 for
training, float64 when running finite-difference checks.  Inference runs
inside ``with no_grad():``, where ops compute values but record no graph.
"""

from contextlib import contextmanager

import numpy as np

from .errors import ContractViolation, NumericFailure

NEG_INF = -1e30      # additive mask value: exp() of it underflows to exactly 0
LN_EPS = 1e-5
_nan_checks = False
_grad_enabled = True


def set_nan_checks(enabled: bool) -> None:
    """Toggle per-op finite-value checks (off by default; costs time)."""
    global _nan_checks
    _nan_checks = enabled


@contextmanager
def no_grad():
    """Build no graph inside the block: every op returns a parentless leaf.

    Parameters keep their ``requires_grad`` flags; nesting is allowed and
    the previous mode comes back on exit, also when the block raises.
    """
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _checked(out: np.ndarray, node: str) -> np.ndarray:
    if _nan_checks and not np.all(np.isfinite(out)):
        raise NumericFailure(node)
    return out


class Tensor:
    """A dense array with an optional gradient buffer and graph linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        # a numpy scalar (a whole-array sum or mean) keeps its dtype
        self.data = data if isinstance(data, np.ndarray) else np.asarray(
            data, dtype=data.dtype if isinstance(data, np.generic) else np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def backward(self) -> None:
        """Populate ``grad`` on every reachable leaf with requires_grad.

        A tensor's first gradient is taken as the op returned it; later
        ones are added out of place in the accumulator's dtype, so no
        gradient array is ever written into and none needs a copy.  A node
        is released once its backward has run (grad, closure and parents),
        so only leaves keep ``grad`` and a graph is walked once.
        """
        if self.data.shape != ():
            raise ContractViolation(
                f"backward() root must be a scalar, got shape {self.data.shape}"
            )
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones((), dtype=self.data.dtype)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            for p, g in zip(node._parents, node._backward(node.grad)):
                if not p.requires_grad:
                    continue
                if p.grad is None:
                    p.grad = np.asarray(g)
                else:
                    p.grad = np.asarray(p.grad + g, p.grad.dtype)
            node.grad, node._backward, node._parents = None, _walked, ()

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, divisor: float):
        return mul(self, 1.0 / divisor)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, rows):
        try:
            ids = np.asarray(rows)
        except ValueError:  # a ragged list
            ids = np.asarray(None)
        if isinstance(rows, list) and ids.size == 0:
            ids = ids.astype(np.intp)  # numpy reads an empty list as float64
        if not isinstance(rows, (int, np.integer, list, np.ndarray)) or ids.dtype.kind not in "iu":
            raise ContractViolation(f"tensors index by integer rows only, got {rows!r}")
        return embedding(self, ids)

    def sum(self, axis=None):
        return sum_(self, axis=axis)

    def mean(self, axis=None):
        return mean(self, axis=axis)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])


def _walked(g):
    raise ContractViolation("backward() already walked this graph; build it again")


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    """Wrap a plain value as a constant tensor, matching ``like``'s dtype."""
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else np.float64
    return Tensor(np.asarray(x, dtype=dtype))


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward, name: str) -> Tensor:
    out = Tensor(_checked(data, name))
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reverse numpy broadcasting: reduce ``g`` back to ``shape``."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = np.expand_dims(g.sum(axis=ax), ax)
    return g


# -- arithmetic ---------------------------------------------------------

def add(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    out_data = a.data + b.data

    def backward(g):
        return _sum_to_shape(g, a.data.shape), _sum_to_shape(g, b.data.shape)

    return _node(out_data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    out_data = a.data * b.data

    def backward(g):
        return _sum_to_shape(g * b.data, a.data.shape), _sum_to_shape(g * a.data, b.data.shape)

    return _node(out_data, (a, b), backward, "mul")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` over x's last axis as one node: one 2-D GEMM each way."""
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out_data = x2 @ w.data
    if b is not None:
        out_data += b.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        grads = ((g2 @ w.data.T).reshape(x.data.shape), x2.T @ g2)
        return grads if b is None else grads + (g2.sum(axis=0),)

    return _node(out_data.reshape(*x.data.shape[:-1], w.data.shape[-1]),
                 (x, w) if b is None else (x, w, b), backward, "linear")


# -- shape ops ----------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    old_shape = a.data.shape
    out_data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(old_shape),)

    return _node(out_data, (a,), backward, "reshape")


# -- reductions ---------------------------------------------------------

def sum_(a: Tensor, axis=None) -> Tensor:
    out_data = a.data.sum(axis=axis)

    def backward(g):
        g = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _node(out_data, (a,), backward, "sum")


def mean(a: Tensor, axis=None) -> Tensor:
    out_data = a.data.mean(axis=axis)
    count = a.data.size // out_data.size

    def backward(g):
        g = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape) / count,)

    return _node(out_data, (a,), backward, "mean")


# -- elementwise nonlinearities ------------------------------------------

def log(a: Tensor, floor: float = -np.inf) -> Tensor:
    """``log(max(a, floor))``; the gradient is zero where the floor binds."""
    clamped = np.maximum(a.data, floor)

    def backward(g):
        return (g / clamped * (a.data > floor),)

    return _node(np.log(clamped), (a,), backward, "log")


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (a.data > 0.0),)

    return _node(out_data, (a,), backward, "relu")


def sigmoid(a: Tensor) -> Tensor:
    # stable in both tails
    out_data = np.empty_like(a.data)
    pos = a.data >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ez = np.exp(a.data[~pos])
    out_data[~pos] = ez / (1.0 + ez)

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return _node(out_data, (a,), backward, "sigmoid")


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = a.data - a.data.max(-1)[..., None]
    e = np.exp(shifted)
    out_data = e / e.sum(-1)[..., None]

    def backward(g):
        dot = (g * out_data).sum(-1)[..., None]
        return (out_data * (g - dot),)

    return _node(out_data, (a,), backward, "softmax")


# -- structured ops -----------------------------------------------------

def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup ``table[ids]`` of a table of any rank; the backward
    scatter-adds by one sparse product."""
    ids = np.asarray(ids)
    out_data = table.data[ids]

    def backward(g):
        from scipy import sparse  # loaded at the first backward: inference never needs it

        flat = ids.reshape(-1)
        # (rows x positions) one-hot: row r sums the gradients of r's positions
        onehot = sparse.csr_matrix((np.ones(flat.size, g.dtype), (flat, np.arange(flat.size))),
                                   shape=(table.data.shape[0], flat.size))
        width = int(np.prod(table.data.shape[1:]))  # not -1: a gather of no rows has size 0
        return ((onehot @ g.reshape(flat.size, width)).reshape(table.data.shape),)

    return _node(out_data, (table,), backward, "embedding")


def token_nll(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """``-sum(weights * log_softmax(logits)[..., targets])`` as one node."""
    idx, w = np.asarray(targets)[..., None], np.asarray(weights, dtype=logits.dtype)
    shifted = logits.data - logits.data.max(-1)[..., None]
    logp = shifted - np.log(np.exp(shifted).sum(-1)[..., None])
    picked = np.take_along_axis(logp, idx, axis=-1)[..., 0]

    def backward(g):
        gw = -(g * w)[..., None]
        d = np.exp(logp) * -gw
        np.put_along_axis(d, idx, gw + np.take_along_axis(d, idx, axis=-1), axis=-1)
        return (d,)

    return _node(-(picked * w).sum(), (logits,), backward, "token_nll")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis (variance floored by ``LN_EPS``), then scale and shift."""
    d = x.data.shape[-1]
    xhat = x.data - x.data.mean(-1)[..., None]
    inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", xhat, xhat)[..., None] / d + LN_EPS)
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data

    def backward(g):
        g2 = g.reshape(-1, d)
        dgain, dbias = np.einsum("ij,ij->j", g2, xhat.reshape(-1, d)), g2.sum(axis=0)
        dx = g * gain.data
        proj = np.einsum("...i,...i->...", dx, xhat)[..., None] / d
        dx -= dx.mean(-1)[..., None] + xhat * proj
        dx *= inv
        return dx, dgain, dbias

    return _node(out_data, (x, gain, bias), backward, "layer_norm")


class WindowLayout:
    """Packing index, chunked key layout and masks of sliding-window attention.

    A batch of B sequences padded to T tokens is packed into its N =
    sum(lengths) real rows, sequence by sequence: packed row r is token
    ``ti[r]`` of sequence ``bi[r]``.  Row i may read key j when
    |i - j| <= window or either one is row 0, the global [CLS] token, and
    j < its sequence's length.  Queries are split into chunks of ``window``
    rows; chunk n reads the [CLS] key, then the span of three chunks
    centred on it, keys n*window - window ... n*window + 2*window - 1, from
    zero-padded keys.  When the sequence fits in one span (T <= 3*window)
    the layout is one chunk of all T rows over all T keys.  ``band`` opens
    the leading [CLS] column for every row and masks key 0 inside the span,
    so each row reads [CLS] once; the global row attends densely over
    ``global_rows``.  Built once per batch, it is shared by every layer.
    """

    def __init__(self, lengths: np.ndarray, seq_len: int, window: int, dtype):
        t = self.seq_len = seq_len
        self.bi, self.ti = np.nonzero(np.arange(t) < lengths[:, None])
        self.n_seg = 1 if t <= 3 * window else 3
        self.chunk = c = t if self.n_seg == 1 else window
        self.n_chunks = n = -(-t // c)
        self.left = c * (self.n_seg - 1) // 2
        starts = np.arange(n)[:, None] * c
        i = starts + np.arange(c)                                  # (n, c) query rows
        j = starts + np.arange(c * self.n_seg) - self.left         # (n, span) key rows
        near = np.abs(i[:, :, None] - j[:, None, :]) <= window
        key_ok = (j >= 1) & (j[None] < lengths[:, None, None])     # (B, n, span)
        band = np.ones((len(lengths), n, c, 1 + j.shape[1]), bool)
        band[..., 1:] = near[None] & key_ok[:, :, None, :]
        self.band = np.where(band, 0.0, NEG_INF).astype(dtype)[:, None]  # (B,1,n,c,1+span)
        key_pad = np.where(np.arange(t) < lengths[:, None], 0.0, NEG_INF).astype(dtype)
        self.global_rows = key_pad[:, None, None, :]               # (B,1,1,T)


def _windows(x: np.ndarray, layout: WindowLayout) -> np.ndarray:
    """(B,H,n,1+span,dk) blocks of padded (B,H,rows,dk): [CLS], then chunk n's span."""
    b, h, _, dk = x.shape
    c, n, left = layout.chunk, layout.n_chunks, layout.left
    s, span = x.strides, c * layout.n_seg
    out = np.empty((b, h, n, 1 + span, dk), x.dtype)
    out[:, :, :, 0] = x[:, :, left, None]
    out[:, :, :, 1:] = np.lib.stride_tricks.as_strided(
        x, (b, h, n, span, dk), (s[0], s[1], c * s[2], s[2], s[3]), writeable=False)
    return out


def _fold(dst: np.ndarray, win: np.ndarray, layout: WindowLayout) -> None:
    """Add block grads (B,H,n,1+span,dk) into padded rows: [CLS], then one add per segment."""
    b, h, n, _, dk = win.shape
    c, ns = layout.chunk, layout.n_seg
    dst[:, :, layout.left] += win[:, :, :, 0].sum(2)
    rows = dst.reshape(b, h, n + ns - 1, c, dk)
    for s in range(ns):
        rows[:, :, s: s + n] += win[:, :, :, 1 + s * c: 1 + (s + 1) * c]


def _drop(p: np.ndarray, rate: float, rng) -> tuple[np.ndarray, np.ndarray | None]:
    if rate <= 0.0:
        return p, None
    keep = (rng.random(p.shape) >= rate).astype(p.dtype) / (1.0 - rate)
    return p * keep, keep


def _attend(s: np.ndarray, v: np.ndarray, rate: float, rng):
    """drop(softmax(s)) @ v over s's last axis, overwriting the masked
    scores s; returns the output and what ``_attend_grads`` reads."""
    s -= s.max(-1)[..., None]
    p = np.exp(s, out=s)
    p /= p.sum(-1)[..., None]
    d, keep = _drop(p, rate, rng)
    return d @ v, (p, d, keep)


def _attend_grads(go, o, q, k, v, saved):
    """(dq, dk, dv) of ``_attend`` on scores q k^T: dS = P * (dP - rowsum(dO * O))."""
    p, d, keep = saved
    ds = go @ v.swapaxes(-1, -2)
    if keep is not None:
        ds *= keep
    ds -= (go * o).sum(-1)[..., None]
    ds *= p
    return ds @ k, ds.swapaxes(-1, -2) @ q, d.swapaxes(-1, -2) @ go


def window_attention(q: Tensor, k: Tensor, v: Tensor, layout: WindowLayout,
                     rate: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """softmax(q k^T / sqrt(dk) + mask) v over ``layout``'s band, as one node.

    q, k, v and the result are packed (N,H,dk): the real rows of the
    layout's batch.  They are scattered into zero-filled (B,H,rows,dk)
    buffers, so the band maths runs on contiguous padded blocks, and the
    result and the three gradients are gathered back at the real rows.
    Every chunk's rows read one key block, the [CLS] key then the span,
    in one softmax; the [CLS] row's dense pass replaces its band row.
    ``rate`` > 0 applies inverted dropout to the attention probabilities.
    The backward re-derives the key blocks from the padded keys.
    """
    _, h, dk = q.shape
    b, t, bi, ti = layout.band.shape[0], layout.seq_len, layout.bi, layout.ti
    c, n, left = layout.chunk, layout.n_chunks, layout.left
    rows, dtype, scale = n * c, q.dtype, 1.0 / float(np.sqrt(dk))

    def heads_first(x, pad_before, n_rows):
        out = np.zeros((b, h, n_rows, dk), dtype)
        out[bi, :, ti + pad_before] = x
        return out

    qp = heads_first(q.data, 0, rows)
    qp *= scale
    kp = heads_first(k.data, left, (n + layout.n_seg - 1) * c)
    vp = heads_first(v.data, left, kp.shape[2])
    kt, vt = kp[:, :, left: left + t], vp[:, :, left: left + t]
    qc = qp.reshape(b, h, n, c, dk)
    s = qc @ _windows(kp, layout).swapaxes(-1, -2)                # (B,H,n,c,1+span)
    s += layout.band
    o, saved = _attend(s, _windows(vp, layout), rate, rng)
    o = o.reshape(b, h, rows, dk)
    s_rows = qp[:, :, :1] @ kt.swapaxes(-1, -2) + layout.global_rows
    o[:, :, :1], saved_rows = _attend(s_rows, vt, rate, rng)

    def backward(grad):
        go = heads_first(grad, 0, rows)
        go_rows = go[:, :, :1].copy()
        go[:, :, :1] = 0.0
        dq, dkw, dvw = _attend_grads(go.reshape(b, h, n, c, dk), o.reshape(b, h, n, c, dk), qc,
                                     _windows(kp, layout), _windows(vp, layout), saved)
        dq = dq.reshape(b, h, rows, dk)
        dkp, dvp = np.zeros_like(kp), np.zeros_like(vp)
        _fold(dkp, dkw, layout)
        _fold(dvp, dvw, layout)
        dq_rows, dk_rows, dv_rows = _attend_grads(go_rows, o[:, :, :1], qp[:, :, :1], kt, vt,
                                                  saved_rows)
        dq[:, :, :1] += dq_rows
        dkp[:, :, left: left + t] += dk_rows
        dvp[:, :, left: left + t] += dv_rows
        return dq[bi, :, ti] * scale, dkp[bi, :, ti + left], dvp[bi, :, ti + left]

    return _node(o[bi, :, ti], (q, k, v), backward, "window_attention")


def attention(q: Tensor, k: Tensor, v: Tensor, key_lengths: np.ndarray | None = None,
              causal: bool = False, rate: float = 0.0,
              rng: np.random.Generator | None = None) -> Tensor:
    """softmax(q k^T / sqrt(dk) + mask) v over all keys, as one node.

    q and the result are (B,Tq,H,dk), k and v (B,Tk,H,dk).  Key j of
    batch row b is hidden when j >= ``key_lengths[b]``; with ``causal``,
    query row i reads key j only when j <= i + Tk - Tq, so Tq = Tk is
    causal self-attention and a single query row reads every key.  The
    matmuls read k and v through (B,H,dk,Tk) and (B,H,Tk,dk) views, so
    keys kept in that layout (a decoder cache) are never copied.
    ``rate`` > 0 applies inverted dropout to the probabilities.
    """
    b, tq, h, dk = q.shape
    tk = k.shape[1]
    scale = 1.0 / float(np.sqrt(dk))
    qh = q.data.transpose(0, 2, 1, 3) * scale                      # (B,H,Tq,dk)
    kt, vh = k.data.transpose(0, 2, 3, 1), v.data.transpose(0, 2, 1, 3)
    s = qh @ kt                                                    # (B,H,Tq,Tk)
    lengths = np.reshape(tk if key_lengths is None else key_lengths, (-1, 1))
    hidden = (np.arange(tk) >= lengths)[:, None, None, :]
    if causal:
        hidden = hidden | (np.arange(tk) > np.arange(tq)[:, None] + (tk - tq))
    s += np.where(hidden, NEG_INF, 0.0).astype(s.dtype)
    o, saved = _attend(s, vh, rate, rng)                           # (B,H,Tq,dk)

    def backward(grad):
        go = grad.transpose(0, 2, 1, 3)
        dq, dk_, dv = _attend_grads(go, o, qh, kt.swapaxes(-1, -2), vh, saved)
        return tuple(gx.transpose(0, 2, 1, 3) for gx in (dq * scale, dk_, dv))

    return _node(np.ascontiguousarray(o.transpose(0, 2, 1, 3)), (q, k, v), backward,
                 "attention")


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate is 0."""
    if rate <= 0.0:
        return x
    out_data, keep = _drop(x.data, rate, rng)

    def backward(g):
        return (g * keep,)

    return _node(out_data, (x,), backward, "dropout")


def forward_backward(loss: Tensor, params: dict[str, Tensor]) -> None:
    """Backprop from a scalar loss into fresh gradients: the params' old ones
    are dropped first, and unreachable params get zero grads."""
    if not np.isfinite(loss.data):
        raise NumericFailure("loss")
    for p in params.values():
        p.grad = None
    loss.backward()
    for p in params.values():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
