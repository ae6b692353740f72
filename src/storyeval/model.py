"""Compact windowed-attention encoder-decoder for story evaluation.

The encoder reads a [CLS]-prefixed story with banded sliding-window
self-attention, one ``autodiff.window_attention`` node per layer (the
[CLS] token attends globally).  It is padding-free: a padded batch is
packed into its real token rows, and the embeddings, layer norms,
projections, feed-forward layers, dropout and residual adds all run on
those (N, d) rows.  Each story's first row, its [CLS] state v_s, feeds
three linear heads: a sigmoid preference score, a softmax over K aspect
confidences, and K sigmoid ratings.  A causal decoder with
cross-attention (each an ``autodiff.attention`` node) reads the same
packed states: the decoder's first input, ``<aspect_k>``, is the control
code for a comment about aspect k, so one plain encoding of a story
serves its heads and its comments on every aspect.

``token_chunks`` is the one batching rule of inference: length-sorted runs
of at most a budget of padded tokens, so long stories are encoded with little
padding and with per-layer temporaries near cache size.  Only ``Model.encoded``,
the one no-grad encode walk, batches by it: ``infer`` and the perplexity walk
groups of ``INFER_TOKENS``, ``generate_comments`` of ``DECODE_TOKENS``, and
``score`` reads each group's heads and comments at once.

Heads are bias-free linear maps so each one is a single named tensor.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, WindowLayout
from .errors import ConfigError, ContractViolation
from .vocab import Vocabulary, pad_batch

# padded tokens (rows x longest row) per Model.infer chunk.  Scoring 64
# stories of 413-512 tokens (d_model 128, one BLAS thread, 2 MB L2) took
# about 1.5x as long in one chunk, whose per-layer temporaries are tens of
# MB, and at 4,096 tokens; 1,024 tied with this budget
INFER_TOKENS = 2048
# encoder tokens per DecoderCache (64 pairs at max_len 512): a step took 0.9 ms
# at 4 rows, 9.1 ms at 64; a pair holds about 1.3 MB of states and cross K/V
DECODE_TOKENS = 16 * INFER_TOKENS


def token_chunks(lengths, budget: int) -> list[np.ndarray]:
    """Index runs of the inputs, sorted stably by length, whose padded size,
    rows x longest row, is at most ``budget``; a longer input is a run alone."""
    runs = []
    for i in np.argsort(lengths, kind="stable"):
        if not runs or (len(runs[-1]) + 1) * lengths[i] > budget:
            runs.append([])
        runs[-1].append(i)
    return [np.asarray(run) for run in runs]


def story_rows(lengths: np.ndarray, picks) -> np.ndarray:
    """The packed rows of stories ``picks``, in that order, of a batch of ``lengths``."""
    n = lengths[picks]
    starts = (np.cumsum(lengths) - lengths)[picks]
    return np.repeat(starts - (np.cumsum(n) - n), n) + np.arange(n.sum())


def distinct(seqs: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """The distinct sequences of ``seqs``, first seen first, and each input's index among them."""
    index: dict[bytes, int] = {}
    picks = np.asarray([index.setdefault(np.asarray(s, np.int64).tobytes(), len(index))
                        for s in seqs], dtype=np.int64)
    return [seqs[i] for i in np.unique(picks, return_index=True)[1]], picks


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
        if min(self.d_model, self.n_heads) < 1 or self.d_model % self.n_heads:
            raise ConfigError(f"d_model {self.d_model} must be a positive multiple of "
                              f"n_heads {self.n_heads} >= 1")
        for name in ("n_enc_layers", "n_dec_layers", "window", "max_len", "n_aspects"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} {getattr(self, name)} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout {self.dropout} must be in [0, 1)")
        if self.vocab_size < 7:
            raise ConfigError("vocab_size too small for reserved tokens")


def init_params(config: ModelConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, Tensor]:
    """Fresh parameter dict: weights N(0, 0.02), norms identity, biases 0.

    Sub-layer j of a block is ``ln{j}`` followed by its mixer's weights, the
    encoder's ``attn`` or the decoder's ``self`` then ``cross``; the last
    sub-layer's mixer is ``ff``."""
    d, v, k = config.d_model, config.vocab_size, config.n_aspects
    params: dict[str, Tensor] = {}

    def w(name, *shape):
        params[name] = Tensor(rng.normal(0.0, 0.02, shape).astype(dtype), requires_grad=True)

    def zeros(name, *shape):
        params[name] = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def norm(name):
        params[f"{name}.g"] = Tensor(np.ones(d, dtype=dtype), requires_grad=True)
        zeros(f"{name}.b", d)

    w("tok_emb", v, d)
    w("pos_emb", config.max_len, d)
    w("dec_pos_emb", config.max_len, d)
    for stack, n_layers, mixers in (("enc", config.n_enc_layers, ("attn",)),
                                    ("dec", config.n_dec_layers, ("self", "cross"))):
        for p in (f"{stack}{i}" for i in range(n_layers)):
            for j, mixer in enumerate(mixers, 1):
                norm(f"{p}.ln{j}")
                for m in ("wq", "wk", "wv", "wo"):
                    w(f"{p}.{mixer}.{m}", d, d)
            norm(f"{p}.ln{len(mixers) + 1}")
            w(f"{p}.ff.w1", d, 4 * d)
            zeros(f"{p}.ff.b1", 4 * d)
            w(f"{p}.ff.w2", 4 * d, d)
            zeros(f"{p}.ff.b2", d)
        norm(f"{stack}_ln")
    w("w_ps", d, 1)
    w("w_ac", d, k)
    w("w_ar", d, k)
    w("w_out", d, v)
    return params


def _heads(params, name: str, x: Tensor, n_heads: int) -> Tensor:
    """Project (..., d) by ``params[name]`` and split into (..., H, dk)."""
    return ad.linear(x, params[name]).reshape(*x.shape[:-1], n_heads, -1)


def _window_attention(params, prefix, x: Tensor, layout: WindowLayout,
                      n_heads: int, rate: float, rng) -> Tensor:
    q, k, v = (_heads(params, f"{prefix}.{m}", x, n_heads) for m in ("wq", "wk", "wv"))
    ctx = ad.window_attention(q, k, v, layout, rate, rng)
    return ad.linear(ctx.reshape(x.shape), params[f"{prefix}.wo"])


def _attend(params, prefix, x: Tensor, k: Tensor, v: Tensor, key_lengths,
            causal: bool, n_heads: int, rate: float, rng) -> Tensor:
    """Decoder attention; x's rows that share k's batch row (a story's beams) query it."""
    b, t, d = x.shape
    q = ad.linear(x, params[f"{prefix}.wq"]).reshape(k.shape[0], -1, n_heads, d // n_heads)
    ctx = ad.attention(q, k, v, key_lengths, causal, rate, rng)
    return ad.linear(ctx.reshape(b, t, d), params[f"{prefix}.wo"])


def _ff(params, prefix, x: Tensor) -> Tensor:
    hidden = ad.relu(ad.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return ad.linear(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def encode(params: dict[str, Tensor], config: ModelConfig, ids: np.ndarray,
           lengths: np.ndarray,
           rng: np.random.Generator | None = None) -> tuple[Tensor, Tensor]:
    """Run the encoder; returns (v_s (B,d), token states (N,d)).

    The states are packed: only the N = lengths.sum() real tokens, story
    by story (``WindowLayout``'s ``bi``, ``ti``), and v_s is each story's
    first row.  Dropout runs at ``config.dropout`` if and only if ``rng``
    is given."""
    if ids.ndim != 2:
        raise ContractViolation("encode expects a (batch, seq) id array")
    t = ids.shape[1]
    if t > config.max_len:
        raise ContractViolation(f"sequence length {t} exceeds max_len {config.max_len}")
    if np.min(lengths) < 1:
        raise ContractViolation("every sequence needs at least one token")
    rate = config.dropout if rng is not None else 0.0
    layout = WindowLayout(lengths, t, config.window, params["tok_emb"].dtype)
    x = (ad.embedding(params["tok_emb"], ids[layout.bi, layout.ti])
         + ad.embedding(params["pos_emb"], layout.ti))
    x = ad.dropout(x, rate, rng)
    for i in range(config.n_enc_layers):
        p = f"enc{i}"
        normed = ad.layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        x = x + ad.dropout(
            _window_attention(params, f"{p}.attn", normed, layout, config.n_heads, rate, rng),
            rate, rng)
        normed = ad.layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        x = x + ad.dropout(_ff(params, f"{p}.ff", normed), rate, rng)
    states = ad.layer_norm(x, params["enc_ln.g"], params["enc_ln.b"])
    return states[np.cumsum(lengths) - lengths], states


def predict_preference(params: dict[str, Tensor], v_s: Tensor) -> Tensor:
    """p_s = sigmoid(W_ps v_s), shape (B,)."""
    return ad.sigmoid(ad.linear(v_s, params["w_ps"]).reshape(-1))


def predict_aspects(params: dict[str, Tensor], v_s: Tensor) -> tuple[Tensor, Tensor]:
    """(a_c, a_r): softmax confidences and sigmoid ratings, each (B,K)."""
    a_c = ad.softmax(ad.linear(v_s, params["w_ac"]))
    a_r = ad.sigmoid(ad.linear(v_s, params["w_ar"]))
    return a_c, a_r


class DecoderCache:
    """Keys and values that incremental decoding keeps between steps: cross-
    attention K/V projected once, as views of contiguous (R,H,dk,Tk) and
    (R,H,Tk,dk) arrays, the layouts ``autodiff.attention`` multiplies in;
    self-attention K/V one step at a time in buffers of ``size`` positions,
    whose rows ``reorder`` moves to beam parents."""

    def __init__(self, size: int):
        self.size, self.length = size, 0
        self.cross: dict[str, tuple[Tensor, Tensor]] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def keep_cross(self, name: str, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        kt = np.ascontiguousarray(k.data.transpose(0, 2, 3, 1))
        vh = np.ascontiguousarray(v.data.transpose(0, 2, 1, 3))
        self.cross[name] = (Tensor(kt.transpose(0, 3, 1, 2)), Tensor(vh.transpose(0, 2, 1, 3)))
        return self.cross[name]

    def append(self, name: str, x: Tensor) -> Tensor:
        """Write (R,t,...) after the cached positions; return all of them."""
        r, t = x.shape[:2]
        if name not in self.buffers:
            self.buffers[name] = np.empty((r, self.size, *x.shape[2:]), x.dtype)
        self.buffers[name][:, self.length: self.length + t] = x.data
        return Tensor(self.buffers[name][:, :self.length + t])

    def reorder(self, rows: np.ndarray, stories: np.ndarray | None = None) -> None:
        """Keep self-attention rows ``rows``, copying a buffer only if a row
        moves; with ``stories``, keep only those encoder rows of the cross K/V."""
        self.buffers = {name: buf if np.array_equal(rows, np.arange(len(buf))) else buf[rows]
                        for name, buf in self.buffers.items()}
        if stories is not None:
            for name, (k, v) in list(self.cross.items()):
                self.keep_cross(name, Tensor(k.data[stories]), Tensor(v.data[stories]))


def decoder_logits(params: dict[str, Tensor], config: ModelConfig,
                   comment_in: np.ndarray, comment_lengths: np.ndarray | None,
                   enc_states: Tensor, enc_lengths: np.ndarray,
                   rng: np.random.Generator | None = None,
                   cache: DecoderCache | None = None) -> Tensor:
    """Causal decoder logits (B,Tc,V) of the comment positions ``comment_in``:
    teacher-forced comments (keys past ``comment_lengths`` hidden), or with
    a ``DecoderCache`` the positions after its ``length`` cached ones.  They
    read packed ``enc_states`` of stories of ``enc_lengths``, one story per
    comment or per group of adjacent rows.  Dropout runs as in ``encode``:
    if and only if ``rng`` is given."""
    b, t = comment_in.shape
    start = cache.length if cache is not None else 0
    if start + t > config.max_len:
        raise ContractViolation(f"comment length {start + t} exceeds max_len {config.max_len}")
    rate, heads = (config.dropout if rng is not None else 0.0), config.n_heads
    pos = np.broadcast_to(np.arange(start, start + t), (b, t))
    x = ad.embedding(params["tok_emb"], comment_in) + ad.embedding(params["dec_pos_emb"], pos)
    x = ad.dropout(x, rate, rng)
    for i in range(config.n_dec_layers):
        p = f"dec{i}"
        normed = ad.layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        k, v = (_heads(params, f"{p}.self.{m}", normed, heads) for m in ("wk", "wv"))
        if cache is not None:
            k, v = cache.append(f"{p}.k", k), cache.append(f"{p}.v", v)
        x = x + ad.dropout(_attend(params, f"{p}.self", normed, k, v, comment_lengths,
                                       True, heads, rate, rng), rate, rng)
        normed = ad.layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        kv = cache.cross.get(p) if cache is not None else None
        if kv is None:
            # project the packed rows, then lay them out per story (padding repeats a last row)
            rows = (np.cumsum(enc_lengths) - enc_lengths)[:, None] + np.minimum(
                np.arange(enc_lengths.max()), enc_lengths[:, None] - 1)
            kv = tuple(ad.embedding(_heads(params, f"{p}.cross.{m}", enc_states, heads), rows)
                       for m in ("wk", "wv"))
            kv = cache.keep_cross(p, *kv) if cache is not None else kv
        x = x + ad.dropout(_attend(params, f"{p}.cross", normed, *kv, enc_lengths,
                                       False, heads, rate, rng), rate, rng)
        normed = ad.layer_norm(x, params[f"{p}.ln3.g"], params[f"{p}.ln3.b"])
        x = x + ad.dropout(_ff(params, f"{p}.ff", normed), rate, rng)
    if cache is not None:
        cache.length += t
    states = ad.layer_norm(x, params["dec_ln.g"], params["dec_ln.b"])
    return ad.linear(states, params["w_out"])


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
        self.config, self.vocab = config, vocab
        self.params = params if params is not None else init_params(
            config, rng or np.random.default_rng(0), dtype=dtype)

    def encode_stories(self, id_seqs: list[np.ndarray], rng=None):
        ids, lengths = pad_batch(id_seqs, self.vocab.pad_id)
        v_s, states = encode(self.params, self.config, ids, lengths, rng=rng)
        return v_s, states, lengths

    def encoded(self, id_seqs: list[np.ndarray], budget: int | None = None):
        """The no-grad encode walk of inference: each ``token_chunks`` group of
        ``budget`` tokens (``INFER_TOKENS`` by default) has its distinct stories
        encoded once, in chunks of ``INFER_TOKENS``.  Yields the group's input
        indices, their heads (p_s, a_c, a_r) as numpy arrays, and the packed states,
        lengths and per-input picks that ``search`` and ``encoded_comment_nll`` read."""
        for group in token_chunks([len(s) for s in id_seqs], budget or INFER_TOKENS):
            seqs, picks = distinct([id_seqs[i] for i in group])
            lengths = np.asarray([len(s) for s in seqs], dtype=np.int64)
            with ad.no_grad():
                # the chunks of a length-sorted group are consecutive runs of its stories
                states = np.concatenate([self.encode_stories([seqs[i] for i in chunk])[1].data
                                         for chunk in token_chunks(lengths, INFER_TOKENS)])
                v_s = Tensor(states[(np.cumsum(lengths) - lengths)[picks]])
                heads = predict_preference(self.params, v_s), *predict_aspects(self.params, v_s)
            yield group, [h.data for h in heads], Tensor(states), lengths, picks

    def infer(self, id_seqs: list[np.ndarray]):
        """Head outputs (p_s (N,), a_c (N,K), a_r (N,K)) for N stories, in order, as
        numpy arrays, walked in groups of ``INFER_TOKENS``."""
        n, k, dtype = len(id_seqs), self.config.n_aspects, self.params["w_ps"].dtype
        out = np.zeros(n, dtype), np.zeros((n, k), dtype), np.zeros((n, k), dtype)
        for group, heads, *_ in self.encoded(id_seqs):
            for part, head in zip(out, heads):
                part[group] = head
        return out

    def comment_nll(self, story_id_seqs: list[np.ndarray], aspect_ks: list[int],
                    comment_seqs: list[np.ndarray], reduce: str = "mean", rng=None) -> Tensor:
        """``encoded_comment_nll`` of (story, aspect, comment) triples on the graph,
        their distinct stories encoded once, in one batch."""
        seqs, picks = distinct(story_id_seqs)
        _, states, lengths = self.encode_stories(seqs, rng=rng)
        return self.encoded_comment_nll(states, lengths, picks, aspect_ks, comment_seqs,
                                        reduce, rng)

    def encoded_comment_nll(self, states: Tensor, lengths: np.ndarray, picks,
                            aspect_ks: list[int], comment_seqs: list[np.ndarray],
                            reduce: str = "mean", rng=None) -> Tensor:
        """Teacher-forced NLL of comment i, <bos> w1 ... wn <eos>, about aspect
        ``aspect_ks[i]`` of story ``picks[i]`` of packed ``states`` (stories of
        ``lengths``): the decoder reads <aspect_k> w1 ... wn.  Padded targets are
        masked out, so ``mean`` divides by the predicted tokens of the batch."""
        if reduce not in ("sum", "mean"):
            raise ContractViolation(f"unknown reduce '{reduce}'")
        comment_seqs = [np.asarray(c, dtype=np.int64) for c in comment_seqs]
        if any(len(c) < 2 or c[0] != self.vocab.bos_id or c[-1] != self.vocab.eos_id
               for c in comment_seqs):
            raise ContractViolation("comment ids must be <bos> ... <eos>")
        inputs, comment_lengths = pad_batch(
            [np.append(self.vocab.aspect_id(k), c[1:-1]) for k, c in zip(aspect_ks, comment_seqs)],
            self.vocab.pad_id)
        targets, _ = pad_batch([c[1:] for c in comment_seqs], 0)
        mask = np.arange(inputs.shape[1])[None, :] < comment_lengths[:, None]
        picks = np.asarray(picks, dtype=np.int64)
        logits = decoder_logits(self.params, self.config, inputs, comment_lengths,
                                ad.embedding(states, story_rows(lengths, picks)),
                                lengths[picks], rng=rng)
        total = ad.token_nll(logits, targets, mask)
        return total if reduce == "sum" else total / float(comment_lengths.sum())

    def generate_comments(self, story_id_seqs: list[np.ndarray], aspect_ks: list[int],
                          max_new_tokens: int = 40, beam: int = 1) -> list[np.ndarray]:
        """Beam-search comment ids per (story, aspect) pair, <aspect_k>/<eos> stripped,
        walked in groups of ``DECODE_TOKENS`` encoder tokens."""
        ks, results = np.asarray(aspect_ks, dtype=np.int64), {}
        for group, _, *encoded in self.encoded(story_id_seqs, DECODE_TOKENS):
            results.update(zip(group, self.search(*encoded, ks[group], max_new_tokens, beam)))
        return [results[i] for i in range(len(ks))]

    @ad.no_grad()
    def search(self, states: Tensor, lengths: np.ndarray, picks, aspect_ks,
               max_new_tokens: int, beam: int) -> list:
        """Beam search of a comment about aspect ``aspect_ks[i]`` of story ``picks[i]``
        of packed ``states`` (stories of ``lengths``).  Each step feeds every hypothesis
        of every unfinished pair one position through a ``DecoderCache``; a pair whose
        hypotheses have all emitted <eos> leaves the batch.  Tokens are ranked by
        logits, not by float32 log-probabilities that can round distinct logits into
        ties; scores add up in float64 and equal scores keep the expansion order, so
        width 1 is exactly argmax."""
        if beam < 1:
            raise ContractViolation("beam width must be >= 1")
        seqs = np.asarray([self.vocab.aspect_id(k) for k in aspect_ks], np.int64).reshape(-1, 1, 1)
        states, enc_lengths = Tensor(states.data[story_rows(lengths, picks)]), lengths[picks]
        n, eos = len(enc_lengths), self.vocab.eos_id
        live, results = np.arange(n), [None] * n      # state row of each decoding pair
        scores, done = np.zeros((n, 1)), np.zeros((n, 1), dtype=bool)
        # states are read once, by the first step, which caches the cross K/V
        cache = DecoderCache(max_new_tokens)
        while cache.length < max_new_tokens and live.size:
            n, rows = live.size, np.arange(live.size)[:, None]
            logits = decoder_logits(self.params, self.config, seqs[:, :, -1].reshape(-1, 1),
                                    None, states, enc_lengths, cache=cache).data[:, 0]
            top = logits.max(-1, keepdims=True)
            logp = logits - np.log(np.exp(logits - top).sum(-1, keepdims=True)) - top
            order = np.argsort(-logits, axis=-1, kind="stable")[:, :beam]
            h, w = done.shape[1], order.shape[1]
            cand = scores[..., None] + np.take_along_axis(logp, order, -1).reshape(n, h, w)
            # a finished hypothesis stays as its first candidate only
            cand[done] = -np.inf
            cand[..., 0][done] = scores[done]
            pick = np.argsort(-cand.reshape(n, h * w), axis=1, kind="stable")[:, :beam]
            parent, rank = np.divmod(pick, w)
            scores, was_done = cand.reshape(n, h * w)[rows, pick], done[rows, parent]
            tokens = np.where(was_done, eos, order.reshape(n, h, w)[rows, parent, rank])
            done = was_done | (tokens == eos) | np.isneginf(scores)
            seqs = np.concatenate([seqs[rows, parent], tokens[..., None]], axis=2)
            keep = ~done.all(axis=1)
            for i in np.flatnonzero(~keep):
                results[live[i]] = seqs[i, 0, 1:]
            live, seqs, scores, done = live[keep], seqs[keep], scores[keep], done[keep]
            enc_lengths = enc_lengths[keep]
            cache.reorder((rows * h + parent)[keep].reshape(-1),
                          None if keep.all() else np.flatnonzero(keep))
        for i, best in zip(live, seqs[:, 0, 1:]):
            results[i] = best
        return [best[: np.append(np.flatnonzero(best == eos), len(best))[0]]
                for best in results]
