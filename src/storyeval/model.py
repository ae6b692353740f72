"""Compact windowed-attention encoder-decoder for story evaluation.

The encoder reads a [CLS]-prefixed story with banded sliding-window
self-attention, one ``autodiff.window_attention`` node per layer (the
[CLS] token, and in the comment path the aspect prefix, attends
globally).  Its position-0 state v_s feeds three linear
heads: a sigmoid preference score, a softmax over K aspect confidences,
and K sigmoid ratings.  A causal decoder with cross-attention generates
aspect-conditioned comments.

``Model.infer`` (run under ``autodiff.no_grad``) is the one batched
inference path for the heads, ``Model.comment_nll`` the one batched
teacher-forced comment loss.

Heads are bias-free linear maps so each one is a single named tensor.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NEG_INF, Tensor, WindowLayout
from .errors import ConfigError, ContractViolation
from .losses import sequence_nll
from .vocab import Vocabulary, conditioned_ids, pad_batch


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    n_heads: int = 4
    window: int = 32
    max_len: int = 512
    n_aspects: int = 10
    dropout: float = 0.1

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.n_aspects < 1:
            raise ConfigError("n_aspects must be >= 1")
        if self.vocab_size < 7:
            raise ConfigError("vocab_size too small for reserved tokens")


def init_params(config: ModelConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, Tensor]:
    """Fresh parameter dict: weights N(0, 0.02), norms identity, biases 0."""
    d, v, k = config.d_model, config.vocab_size, config.n_aspects
    h = 4 * d
    params: dict[str, Tensor] = {}

    def w(name, *shape):
        params[name] = Tensor(rng.normal(0.0, 0.02, shape).astype(dtype), requires_grad=True)

    def zeros(name, *shape):
        params[name] = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(name, *shape):
        params[name] = Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    w("tok_emb", v, d)
    w("pos_emb", config.max_len, d)
    w("dec_pos_emb", config.max_len, d)
    for i in range(config.n_enc_layers):
        p = f"enc{i}"
        ones(f"{p}.ln1.g", d)
        zeros(f"{p}.ln1.b", d)
        for m in ("wq", "wk", "wv", "wo"):
            w(f"{p}.attn.{m}", d, d)
        ones(f"{p}.ln2.g", d)
        zeros(f"{p}.ln2.b", d)
        w(f"{p}.ff.w1", d, h)
        zeros(f"{p}.ff.b1", h)
        w(f"{p}.ff.w2", h, d)
        zeros(f"{p}.ff.b2", d)
    ones("enc_ln.g", d)
    zeros("enc_ln.b", d)
    for i in range(config.n_dec_layers):
        p = f"dec{i}"
        ones(f"{p}.ln1.g", d)
        zeros(f"{p}.ln1.b", d)
        for m in ("wq", "wk", "wv", "wo"):
            w(f"{p}.self.{m}", d, d)
        ones(f"{p}.ln2.g", d)
        zeros(f"{p}.ln2.b", d)
        for m in ("wq", "wk", "wv", "wo"):
            w(f"{p}.cross.{m}", d, d)
        ones(f"{p}.ln3.g", d)
        zeros(f"{p}.ln3.b", d)
        w(f"{p}.ff.w1", d, h)
        zeros(f"{p}.ff.b1", h)
        w(f"{p}.ff.w2", h, d)
        zeros(f"{p}.ff.b2", d)
    ones("dec_ln.g", d)
    zeros("dec_ln.b", d)
    w("w_ps", d, 1)
    w("w_ac", d, k)
    w("w_ar", d, k)
    w("w_out", d, v)
    return params


# -- decoder attention masks (additive, 0 = allowed) ----------------------

def causal_mask(lengths: np.ndarray, seq_len: int, dtype) -> np.ndarray:
    """(B,1,T,T) lower-triangular mask with key padding."""
    i = np.arange(seq_len)[:, None]
    j = np.arange(seq_len)[None, :]
    base = np.where(j <= i, 0.0, NEG_INF).astype(dtype)
    key_pad = np.where(np.arange(seq_len)[None, :] < lengths[:, None], 0.0, NEG_INF)
    return base[None, None, :, :] + key_pad.astype(dtype)[:, None, None, :]


def cross_mask(enc_lengths: np.ndarray, enc_len: int, dtype) -> np.ndarray:
    """(B,1,1,Tk) mask hiding encoder padding from the decoder."""
    key_pad = np.where(np.arange(enc_len)[None, :] < enc_lengths[:, None], 0.0, NEG_INF)
    return key_pad.astype(dtype)[:, None, None, :]


def _mha(params, prefix, xq: Tensor, xkv: Tensor, mask: np.ndarray,
         n_heads: int, rate: float, rng) -> Tensor:
    b, tq, d = xq.shape
    tk = xkv.shape[1]
    dk = d // n_heads
    q = (xq @ params[f"{prefix}.wq"]).reshape(b, tq, n_heads, dk).swapaxes(1, 2)
    k = (xkv @ params[f"{prefix}.wk"]).reshape(b, tk, n_heads, dk).swapaxes(1, 2)
    v = (xkv @ params[f"{prefix}.wv"]).reshape(b, tk, n_heads, dk).swapaxes(1, 2)
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(dk)) + Tensor(mask)
    probs = ad.softmax(scores, axis=-1)
    if rate > 0.0:
        probs = ad.dropout(probs, rate, rng)
    ctx = (probs @ v).swapaxes(1, 2).reshape(b, tq, d)
    return ctx @ params[f"{prefix}.wo"]


def _window_attention(params, prefix, x: Tensor, layout: WindowLayout,
                      n_heads: int, rate: float, rng) -> Tensor:
    b, t, d = x.shape
    q, k, v = ((x @ params[f"{prefix}.{m}"]).reshape(b, t, n_heads, d // n_heads)
               for m in ("wq", "wk", "wv"))
    ctx = ad.window_attention(q, k, v, layout, rate, rng)
    return ctx.reshape(b, t, d) @ params[f"{prefix}.wo"]


def _ff(params, prefix, x: Tensor) -> Tensor:
    hidden = ad.relu(x @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"])
    return hidden @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"]


def _maybe_dropout(x: Tensor, rate: float, rng) -> Tensor:
    return ad.dropout(x, rate, rng) if rate > 0.0 else x


def encode(params: dict[str, Tensor], config: ModelConfig, ids: np.ndarray,
           lengths: np.ndarray, n_global: int = 1, train: bool = False,
           rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
    """Run the encoder; returns (v_s (B,d), token states (B,T,d))."""
    if ids.ndim != 2:
        raise ContractViolation("encode expects a (batch, seq) id array")
    b, t = ids.shape
    if t > config.max_len:
        raise ContractViolation(f"sequence length {t} exceeds max_len {config.max_len}")
    rate = config.dropout if train else 0.0
    dtype = params["tok_emb"].dtype
    pos = np.broadcast_to(np.arange(t), (b, t))
    x = ad.embedding(params["tok_emb"], ids) + ad.embedding(params["pos_emb"], pos)
    x = _maybe_dropout(x, rate, rng)
    layout = WindowLayout(lengths, t, config.window, n_global, dtype)
    for i in range(config.n_enc_layers):
        p = f"enc{i}"
        normed = ad.layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        x = x + _maybe_dropout(
            _window_attention(params, f"{p}.attn", normed, layout, config.n_heads, rate, rng),
            rate, rng)
        normed = ad.layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        x = x + _maybe_dropout(_ff(params, f"{p}.ff", normed), rate, rng)
    states = ad.layer_norm(x, params["enc_ln.g"], params["enc_ln.b"])
    v_s = states[:, 0, :]
    return v_s, states


def predict_preference(params: dict[str, Tensor], v_s: Tensor) -> Tensor:
    """p_s = sigmoid(W_ps v_s), shape (B,)."""
    return ad.sigmoid((v_s @ params["w_ps"]).reshape(-1))


def predict_aspects(params: dict[str, Tensor], v_s: Tensor) -> tuple[Tensor, Tensor]:
    """(a_c, a_r): softmax confidences and sigmoid ratings, each (B,K)."""
    a_c = ad.softmax(v_s @ params["w_ac"], axis=-1)
    a_r = ad.sigmoid(v_s @ params["w_ar"])
    return a_c, a_r


def decoder_logits(params: dict[str, Tensor], config: ModelConfig,
                   comment_in: np.ndarray, comment_lengths: np.ndarray,
                   enc_states: Tensor, enc_lengths: np.ndarray,
                   train: bool = False,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Causal decoder over teacher-forced inputs; returns (B,Tc,V) logits."""
    b, t = comment_in.shape
    if t > config.max_len:
        raise ContractViolation(f"comment length {t} exceeds max_len {config.max_len}")
    rate = config.dropout if train else 0.0
    dtype = params["tok_emb"].dtype
    pos = np.broadcast_to(np.arange(t), (b, t))
    x = ad.embedding(params["tok_emb"], comment_in) + ad.embedding(params["dec_pos_emb"], pos)
    x = _maybe_dropout(x, rate, rng)
    self_mask = causal_mask(comment_lengths, t, dtype)
    xmask = cross_mask(enc_lengths, enc_states.shape[1], dtype)
    for i in range(config.n_dec_layers):
        p = f"dec{i}"
        normed = ad.layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        x = x + _maybe_dropout(
            _mha(params, f"{p}.self", normed, normed, self_mask, config.n_heads, rate, rng),
            rate, rng)
        normed = ad.layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        x = x + _maybe_dropout(
            _mha(params, f"{p}.cross", normed, enc_states, xmask, config.n_heads, rate, rng),
            rate, rng)
        normed = ad.layer_norm(x, params[f"{p}.ln3.g"], params[f"{p}.ln3.b"])
        x = x + _maybe_dropout(_ff(params, f"{p}.ff", normed), rate, rng)
    states = ad.layer_norm(x, params["dec_ln.g"], params["dec_ln.b"])
    return states @ params["w_out"]


class Model:
    """Bundles config, vocabulary and parameters behind task-level calls."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary,
                 params: dict[str, Tensor] | None = None,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        if len(vocab) != config.vocab_size:
            raise ConfigError(
                f"vocab has {len(vocab)} tokens but config says {config.vocab_size}")
        if vocab.n_aspects != config.n_aspects:
            raise ConfigError("vocab and config disagree on aspect count")
        self.config = config
        self.vocab = vocab
        if params is None:
            params = init_params(config, rng or np.random.default_rng(0), dtype=dtype)
        self.params = params

    def encode_stories(self, id_seqs: list[np.ndarray], n_global: int = 1,
                       train: bool = False, rng=None):
        ids, lengths = pad_batch(id_seqs, self.vocab.pad_id)
        v_s, states = encode(self.params, self.config, ids, lengths,
                             n_global=n_global, train=train, rng=rng)
        return v_s, states, lengths

    def infer(self, id_seqs: list[np.ndarray], batch_size: int = 64):
        """Head outputs (p_s (N,), a_c (N,K), a_r (N,K)) for N stories, in order.

        Stories are encoded in padded chunks of ``batch_size`` without
        building a graph; the results are plain numpy arrays.
        """
        chunks = []
        with ad.no_grad():
            for start in range(0, len(id_seqs), batch_size):
                v_s, _, _ = self.encode_stories(id_seqs[start: start + batch_size])
                a_c, a_r = predict_aspects(self.params, v_s)
                chunks.append((predict_preference(self.params, v_s).data,
                               a_c.data, a_r.data))
        if not chunks:
            k = self.config.n_aspects
            return np.zeros(0), np.zeros((0, k)), np.zeros((0, k))
        return tuple(np.concatenate(part) for part in zip(*chunks))

    def comment_encoder_states(self, story_id_seqs: list[np.ndarray],
                               aspect_ks: list[int], train: bool = False, rng=None):
        """Encode aspect-conditioned stories for the comment path."""
        conds = [conditioned_ids(s, k, self.vocab, self.config.max_len)
                 for s, k in zip(story_id_seqs, aspect_ks)]
        ids, lengths = pad_batch(conds, self.vocab.pad_id)
        _, states = encode(self.params, self.config, ids, lengths,
                           n_global=3, train=train, rng=rng)
        return states, lengths

    def comment_logits(self, story_id_seqs: list[np.ndarray], aspect_ks: list[int],
                       comment_in: np.ndarray, comment_lengths: np.ndarray,
                       train: bool = False, rng=None) -> Tensor:
        states, enc_lengths = self.comment_encoder_states(
            story_id_seqs, aspect_ks, train=train, rng=rng)
        return decoder_logits(self.params, self.config, comment_in, comment_lengths,
                              states, enc_lengths, train=train, rng=rng)

    def comment_nll(self, story_id_seqs: list[np.ndarray], aspect_ks: list[int],
                    comment_seqs: list[np.ndarray], reduce: str = "mean",
                    train: bool = False, rng=None) -> Tensor:
        """Teacher-forced NLL of a batch of (story, aspect, comment) triples.

        Each comment must be <bos> ... <eos>.  Comments are right-padded
        to one batch and padded targets are masked out, so ``mean``
        divides by the number of predicted tokens in the whole batch.
        """
        comment_seqs = [np.asarray(c, dtype=np.int64) for c in comment_seqs]
        for c in comment_seqs:
            if len(c) < 2 or c[0] != self.vocab.bos_id or c[-1] != self.vocab.eos_id:
                raise ContractViolation("comment ids must be <bos> ... <eos>")
        inputs, lengths = pad_batch([c[:-1] for c in comment_seqs], self.vocab.pad_id)
        targets, _ = pad_batch([c[1:] for c in comment_seqs], 0)
        mask = np.arange(inputs.shape[1])[None, :] < lengths[:, None]
        logits = self.comment_logits(story_id_seqs, aspect_ks, inputs, lengths,
                                     train=train, rng=rng)
        return sequence_nll(logits, targets, mask, reduce=reduce)

    def teacher_forced_nll(self, story_ids: np.ndarray, aspect_k: int,
                           comment_ids: np.ndarray, reduce: str = "mean") -> Tensor:
        """``comment_nll`` of a single (story, aspect, comment) triple."""
        return self.comment_nll([story_ids], [aspect_k], [comment_ids], reduce=reduce)

    def generate_comment(self, story_ids: np.ndarray, aspect_k: int,
                         max_new_tokens: int = 40, beam: int = 1) -> np.ndarray:
        """Beam-search comment token ids, <bos>/<eos> stripped; width 1 is greedy."""
        if not 0 <= aspect_k < self.config.n_aspects:
            raise ContractViolation(f"aspect id {aspect_k} outside [0, {self.config.n_aspects})")
        if beam < 1:
            raise ContractViolation("beam width must be >= 1")
        with ad.no_grad():
            states, enc_lengths = self.comment_encoder_states([story_ids], [aspect_k])
            out = self._beam(states, enc_lengths, max_new_tokens, beam)
        return np.asarray(out, dtype=np.int64)

    def _step_logits(self, prefix: list[int], states: Tensor,
                     enc_lengths: np.ndarray) -> np.ndarray:
        ids = np.asarray(prefix, dtype=np.int64)[None, :]
        lengths = np.asarray([len(prefix)])
        logits = decoder_logits(self.params, self.config, ids, lengths,
                                states, enc_lengths)
        return logits.data[0, -1]

    def _beam(self, states, enc_lengths, max_new_tokens: int, width: int) -> list[int]:
        # hypotheses: (score, ids, finished).  Tokens are ranked by logits,
        # not by float32 log-probabilities that can round distinct logits
        # into ties; ties resolve to the earliest expansion, so width 1 is
        # exactly argmax
        beams = [(0.0, [self.vocab.bos_id], False)]
        for _ in range(max_new_tokens):
            if all(done for _, _, done in beams):
                break
            candidates = []
            for score, seq, done in beams:
                if done:
                    candidates.append((score, seq, True))
                    continue
                logits = self._step_logits(seq, states, enc_lengths)
                logp = logits - np.log(np.exp(logits - logits.max()).sum()) - logits.max()
                order = np.argsort(-logits, kind="stable")[:width]
                for tok in order:
                    tok = int(tok)
                    candidates.append((score + float(logp[tok]), seq + [tok],
                                       tok == self.vocab.eos_id))
            candidates.sort(key=lambda c: -c[0])
            beams = candidates[:width]
        best = beams[0][1]
        body = best[1:]
        if body and body[-1] == self.vocab.eos_id:
            body = body[:-1]
        return body
