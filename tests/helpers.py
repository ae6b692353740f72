"""Shared test utilities: the finite-difference gradient oracle, and the
``tape_ops``, the op names ``autodiff`` declares, and the
simple versions that faster code is checked against: ``reference_backward``,
the walk that keeps every node until it ends, for ``Tensor.backward``, which
frees each node as it goes; the generic
broadcasting ``matmul`` node for the fused ``ad.linear`` (and the
``swapaxes`` and general-index ``take`` nodes of the dense oracles), the two-pass
layer norm for the one-pass ``ad.layer_norm``, per-story scoring
for batched inference, dense masked attention for banded window
attention and for the fused decoder attention, the numpy-array Gibbs
sampler and pair-scan UMass coherence for the list-based LDA, the
full-prefix decoding loops (greedy and per-hypothesis beam search) for
cached, batched comment generation, ``reference_score``, ``Model.infer``
then ``generate_comments``, for ``score``'s one encode walk,
``reference_train_step``, the
three-pass train step (preferred, rejected and negative stories each
encoded on their own, and the comment loss's stories encoded again) for
the one-pass ``Trainer.train_step``, and
``reference_augment``, the per-comment filter loop, for the two-call
``augment_comments``; ``TableModel`` stands in for its filters.  The full
encode's [CLS] rows are the oracle of the heads-only encode, and
``encode_flags`` records which path each ``model.encode`` call took."""

import inspect
import re
from types import SimpleNamespace

import numpy as np

from storyeval import autodiff as ad
from storyeval import model as model_mod
from storyeval import rng as rng_mod
from storyeval.aspects import CommentRecord, LdaModel, rating_from_class
from storyeval.autodiff import NEG_INF
from storyeval.errors import ContractViolation
from storyeval.losses import (
    coherence_rank_loss,
    confidence_loss,
    discrimination_loss,
    joint_loss,
    margin_rank_loss,
    rating_loss,
)
from storyeval.model import _ff, decoder_logits, predict_aspects, predict_preference
from storyeval.optim import lr_at
from storyeval.training import LogRow
from storyeval.vocab import build_vocab, tokenize


def tape_ops() -> set[str]:
    """The op names ``autodiff`` declares, one per ``return _node(...)``."""
    source = inspect.getsource(ad)
    declared = set(re.findall(r'backward,\s*"(\w+)"\)', source))
    assert len(declared) == source.count("return _node(")
    return declared


def matmul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """``a @ b`` with numpy broadcasting as one tape node.

    This is the op that ``ad.linear`` replaced; the tests also use it for
    the products of the dense attention oracles.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ContractViolation("matmul operands must have ndim >= 2")
    out_data = a.data @ b.data

    def backward(g):
        return (ad._sum_to_shape(g @ b.data.swapaxes(-1, -2), a.data.shape),
                ad._sum_to_shape(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return ad._node(out_data, (a, b), backward, "matmul")


def take(a: ad.Tensor, idx) -> ad.Tensor:
    """``a.data[idx]`` for any numpy index, as one tape node; the dense
    oracles slice tensors (``states[:, 0, :]``), which ``Tensor[rows]``, an
    ``ad.embedding`` gather of whole rows, does not."""
    def backward(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return ad._node(np.ascontiguousarray(a.data[idx]), (a,), backward, "take")


def swapaxes(a: ad.Tensor, ax1: int, ax2: int) -> ad.Tensor:
    """``a.data.swapaxes(ax1, ax2)`` copied contiguous, as one tape node;
    only the dense attention oracle ``mha`` needs it."""
    out_data = np.ascontiguousarray(a.data.swapaxes(ax1, ax2))
    return ad._node(out_data, (a,), lambda g: (g.swapaxes(ax1, ax2),), "swapaxes")


def reference_layer_norm(x: ad.Tensor, gain: ad.Tensor, bias: ad.Tensor,
                         eps: float = 1e-5) -> ad.Tensor:
    """Layer norm with a two-pass forward (mean, then ``var``) and a
    backward built from means; the version the one-pass op replaced."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data + bias.data
    reduce_axes = tuple(range(out_data.ndim - 1))

    def backward(g):
        dxhat = g * gain.data
        term = dxhat - dxhat.mean(axis=-1, keepdims=True) \
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        return term * inv, (g * xhat).sum(axis=reduce_axes), g.sum(axis=reduce_axes)

    return ad._node(out_data, (x, gain, bias), backward, "layer_norm")


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


def mha(params, prefix, xq, xkv, mask: np.ndarray, n_heads: int, rate: float, rng):
    """Multi-head attention as generic tape nodes under a dense additive mask.

    This is the attention that ``ad.attention`` replaced in the decoder.
    """
    b, tq, d = xq.shape
    tk = xkv.shape[1]
    dk = d // n_heads
    q = swapaxes(matmul(xq, params[f"{prefix}.wq"]).reshape(b, tq, n_heads, dk), 1, 2)
    k = swapaxes(matmul(xkv, params[f"{prefix}.wk"]).reshape(b, tk, n_heads, dk), 1, 2)
    v = swapaxes(matmul(xkv, params[f"{prefix}.wv"]).reshape(b, tk, n_heads, dk), 1, 2)
    scores = matmul(q, swapaxes(k, -1, -2)) * (1.0 / np.sqrt(dk)) + ad.Tensor(mask)
    probs = ad.softmax(scores)
    if rate > 0.0:
        probs = ad.dropout(probs, rate, rng)
    ctx = swapaxes(matmul(probs, v), 1, 2).reshape(b, tq, d)
    return matmul(ctx, params[f"{prefix}.wo"])


def dense_decoder_logits(params, config, comment_in: np.ndarray,
                         comment_lengths: np.ndarray, enc_states, enc_lengths: np.ndarray):
    """``model.decoder_logits`` (no dropout, no cache) with ``mha`` and dense
    masks; the packed encoder states are scattered into a zero-padded batch
    first, so the cross projections run on the padded rows."""
    b, t = comment_in.shape
    dtype = params["tok_emb"].dtype
    bi, ti = np.nonzero(np.arange(enc_lengths.max()) < enc_lengths[:, None])
    padded = np.zeros((len(enc_lengths), enc_lengths.max(), config.d_model), dtype)
    padded[bi, ti] = enc_states.data
    enc_states = ad.Tensor(padded)
    pos = np.broadcast_to(np.arange(t), (b, t))
    x = ad.embedding(params["tok_emb"], comment_in) + ad.embedding(params["dec_pos_emb"], pos)
    self_mask = causal_mask(comment_lengths, t, dtype)
    xmask = cross_mask(enc_lengths, enc_states.shape[1], dtype)
    for i in range(config.n_dec_layers):
        p = f"dec{i}"
        normed = ad.layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        x = x + mha(params, f"{p}.self", normed, normed, self_mask, config.n_heads, 0.0, None)
        normed = ad.layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        x = x + mha(params, f"{p}.cross", normed, enc_states, xmask, config.n_heads, 0.0, None)
        normed = ad.layer_norm(x, params[f"{p}.ln3.g"], params[f"{p}.ln3.b"])
        x = x + _ff(params, f"{p}.ff", normed)
    states = ad.layer_norm(x, params["dec_ln.g"], params["dec_ln.b"])
    return matmul(states, params["w_out"])


def reference_backward(root: ad.Tensor) -> None:
    """``Tensor.backward`` as a walk over a list that holds every node, each
    with its gradient, closure and parents, until the walk ends."""
    if root.data.shape != ():
        raise ContractViolation(f"backward() root must be a scalar, got shape {root.data.shape}")
    order: list[ad.Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[ad.Tensor, bool]] = [(root, False)]
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
    root.grad = np.ones((), dtype=root.data.dtype)
    for node in reversed(order):
        if node._backward is None:
            continue
        for p, g in zip(node._parents, node._backward(node.grad)):
            if not p.requires_grad:
                continue
            if p.grad is None:
                p.grad = np.asarray(g)
            else:
                p.grad = np.asarray(p.grad + g, p.grad.dtype)


def central_diff(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Gradient of the scalar-valued ``f`` with respect to ``x``.

    Perturbs one entry of ``x`` in place at a time, so ``f`` must read
    ``x`` afresh on every call.  Use float64 arrays; h=1e-4 is tuned for
    that precision.
    """
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(f())
        flat[i] = orig - h
        lo = float(f())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return g


FD_RUNGS = 3   # steps h, h/10, h/100


def rung_errors(f, x: np.ndarray, i: int, analytic: float, h: float, floor: float,
                tol: float) -> list[float]:
    """Relative errors of ``analytic`` against central differences of the
    scalar ``f`` at flat entry ``i`` of ``x``, with steps h, h/10, h/100,
    up to the first within ``tol``.  A step that straddles a relu or hinge
    kink corrupts its difference quotient and a shorter one clears the
    kink, while a wrong gradient misses at every step.  The error's
    denominator is floored at ``floor``."""
    flat, errors = x.reshape(-1), []
    orig = flat[i]
    for rung in range(FD_RUNGS):
        step = h / 10.0 ** rung
        flat[i] = orig + step
        hi = float(f())
        flat[i] = orig - step
        lo = float(f())
        flat[i] = orig
        num = (hi - lo) / (2.0 * step)
        errors.append(abs(num - analytic) / max(abs(num), abs(analytic), floor))
        if errors[-1] <= tol:
            break
    return errors


def check_sampled_grads(make_loss, params: dict, rng, n_per_tensor: int = 3,
                        h: float = 1e-4, tol: float = 1e-3) -> float:
    """FD-check a few entries of every parameter tensor by ``rung_errors``
    (floor 1e-3, as ``max_rel_err``); returns the worst accepted error."""
    for p in params.values():
        p.grad = None
    loss = make_loss()
    loss.backward()
    worst = 0.0
    for name, p in params.items():
        size = p.data.size
        n = min(n_per_tensor, size)
        idx = rng.choice(size, size=n, replace=False)
        grad_flat = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        for i in idx:
            errors = rung_errors(lambda: make_loss().data, p.data, int(i), grad_flat[i],
                                 h, 1e-3, tol)
            assert errors[-1] <= tol, f"{name}[{i}]: rel errs {errors}"
            worst = max(worst, errors[-1])
    return worst


def encode_flags(monkeypatch, run) -> list[bool]:
    """The ``states`` flag of every ``model.encode`` call that ``run()`` makes:
    True for the full encode, False for the heads-only one."""
    flags, real = [], model_mod.encode

    def spy(*args, **kw):
        flags.append(kw.get("states", True))
        return real(*args, **kw)

    monkeypatch.setattr(model_mod, "encode", spy)
    try:
        run()
    finally:
        monkeypatch.setattr(model_mod, "encode", real)
    return flags


def reference_heads(model, id_seqs):
    """(p_s, a_c, a_r) from one unpadded encode per story, in input order.

    This is the per-story scoring loop that ``Model.infer`` replaced.
    """
    rows = []
    for ids in id_seqs:
        v_s, _, _ = model.encode_stories([ids])
        a_c, a_r = predict_aspects(model.params, v_s)
        rows.append((predict_preference(model.params, v_s).data[0],
                     a_c.data[0], a_r.data[0]))
    p_s, a_c, a_r = zip(*rows)
    return np.asarray(p_s), np.stack(a_c), np.stack(a_r)


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise relative error.

    The denominator is floored at 1e-3 so near-zero entries are judged by
    an absolute criterion instead of amplifying finite-difference noise.
    """
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
    return float(np.max(np.abs(a - b) / scale))


def window_mask(lengths: np.ndarray, seq_len: int, window: int, dtype) -> np.ndarray:
    """(B,1,T,T) sliding-window mask with a global first row and column."""
    i = np.arange(seq_len)[:, None]
    j = np.arange(seq_len)[None, :]
    local = (np.abs(i - j) <= window) | (i == 0) | (j == 0)
    base = np.where(local, 0.0, NEG_INF).astype(dtype)
    key_pad = np.where(np.arange(seq_len)[None, :] < lengths[:, None], 0.0, NEG_INF)
    return base[None, None, :, :] + key_pad.astype(dtype)[:, None, None, :]


def dense_window_attention(q, k, v, mask: np.ndarray) -> np.ndarray:
    """(B,T,H,dk) attention as a full T x T softmax under an additive mask."""
    q, k, v = (np.swapaxes(x, 1, 2) for x in (q, k, v))
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1])) + mask
    e = np.exp(scores - scores.max(-1, keepdims=True))
    return np.swapaxes((e / e.sum(-1, keepdims=True)) @ v, 1, 2)


def dense_encode(params, config, ids: np.ndarray, lengths: np.ndarray):
    """``model.encode`` (no dropout) with masked dense T x T self-attention.

    This is the encoder that banded ``window_attention`` replaced.
    """
    b, t = ids.shape
    dtype = params["tok_emb"].dtype
    pos = np.broadcast_to(np.arange(t), (b, t))
    x = ad.embedding(params["tok_emb"], ids) + ad.embedding(params["pos_emb"], pos)
    mask = window_mask(lengths, t, config.window, dtype)
    for i in range(config.n_enc_layers):
        p = f"enc{i}"
        normed = ad.layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        x = x + mha(params, f"{p}.attn", normed, normed, mask, config.n_heads, 0.0, None)
        normed = ad.layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        x = x + _ff(params, f"{p}.ff", normed)
    states = ad.layer_norm(x, params["enc_ln.g"], params["enc_ln.b"])
    return take(states, (slice(None), 0)), states


def _reference_gibbs_sweep(word_ids, doc_ids, z, n_tw, n_t, n_dt, alpha, beta,
                           uniforms, cum):
    n_topics, vsize = n_tw.shape
    for i in range(word_ids.shape[0]):
        w = word_ids[i]
        d = doc_ids[i]
        t = z[i]
        n_tw[t, w] -= 1
        n_t[t] -= 1
        n_dt[d, t] -= 1
        total = 0.0
        for k in range(n_topics):
            p = (n_dt[d, k] + alpha) * (n_tw[k, w] + beta) / (n_t[k] + beta * vsize)
            total += p
            cum[k] = total
        u = uniforms[i] * total
        k = 0
        while cum[k] < u:
            k += 1
        z[i] = k
        n_tw[k, w] += 1
        n_t[k] += 1
        n_dt[d, k] += 1


def reference_lda_fit(docs, vocab, n_topics: int, alpha: float | None = None,
                      beta: float = 0.01, iterations: int = 500,
                      seed: int = 0) -> LdaModel:
    """``aspects.lda_fit`` with the Gibbs sweep over numpy arrays.

    This is the kernel the list-based sweep replaced; both must walk the
    same chain from the same stream.
    """
    if alpha is None:
        alpha = 50.0 / n_topics
    word_ids = np.concatenate(docs)
    doc_ids = np.concatenate([np.full(len(d), i, dtype=np.int64)
                              for i, d in enumerate(docs)])
    total = len(word_ids)
    rng = rng_mod.stream(seed, f"lda:T={n_topics}")
    z = rng.integers(0, n_topics, size=total).astype(np.int64)
    n_tw = np.zeros((n_topics, len(vocab)), dtype=np.float64)
    n_t = np.zeros(n_topics, dtype=np.float64)
    n_dt = np.zeros((len(docs), n_topics), dtype=np.float64)
    np.add.at(n_tw, (z, word_ids), 1.0)
    np.add.at(n_t, z, 1.0)
    np.add.at(n_dt, (doc_ids, z), 1.0)
    cum = np.zeros(n_topics, dtype=np.float64)
    for _ in range(iterations):
        _reference_gibbs_sweep(word_ids, doc_ids, z, n_tw, n_t, n_dt, float(alpha),
                               float(beta), rng.random(total), cum)
    return LdaModel(topic_word=n_tw, doc_topic=n_dt, alpha=alpha, beta=beta,
                    n_topics=n_topics, vocab=list(vocab))


def reference_umass_coherence(model: LdaModel, docs, top_n: int = 10) -> float:
    """UMass coherence by scanning every document for every top-word pair."""
    doc_sets = [set(d.tolist()) for d in docs]
    doc_freq: dict[int, int] = {}
    for s in doc_sets:
        for w in s:
            doc_freq[w] = doc_freq.get(w, 0) + 1
    dist = model.topic_word_dist()
    scores = []
    for t in range(model.n_topics):
        top = np.argsort(-dist[t], kind="stable")[:top_n].tolist()
        score = 0.0
        for i in range(1, len(top)):
            for j in range(i):
                wi, wj = top[i], top[j]
                co = sum(1 for s in doc_sets if wi in s and wj in s)
                denom = doc_freq.get(wj, 0)
                if denom == 0:
                    continue
                score += np.log((co + 1.0) / denom)
        scores.append(score)
    return float(np.mean(scores))


def prefix_step_logits(model, prefix: list[int], states, enc_lengths) -> np.ndarray:
    """Next-token logits from running the decoder over the whole prefix.

    This is the per-token step that the decoder cache replaced.
    """
    ids = np.asarray(prefix, dtype=np.int64)[None, :]
    logits = decoder_logits(model.params, model.config, ids, np.asarray([len(prefix)]),
                            states, enc_lengths)
    return logits.data[0, -1]


def greedy_comment(model, story_ids, aspect_k: int, max_new_tokens: int = 40) -> np.ndarray:
    """Comment ids by argmax decoding from <aspect_k>, one full-prefix step
    per token.

    This is the greedy loop that width-1 beam search replaced.
    """
    vocab = model.vocab
    with ad.no_grad():
        _, states, enc_lengths = model.encode_stories([story_ids])
        seq = [vocab.aspect_id(aspect_k)]
        out: list[int] = []
        for _ in range(max_new_tokens):
            nxt = int(np.argmax(prefix_step_logits(model, seq, states, enc_lengths)))
            if nxt == vocab.eos_id:
                break
            out.append(nxt)
            seq.append(nxt)
    return np.asarray(out, dtype=np.int64)


def reference_beam(model, story_ids, aspect_k: int, max_new_tokens: int = 40,
                   width: int = 1) -> np.ndarray:
    """Beam search over one story, one full-prefix step per live hypothesis.

    This is the per-hypothesis search that the batched cached search
    replaced; it ranks tokens and candidates by the same rules.
    """
    vocab = model.vocab
    with ad.no_grad():
        _, states, enc_lengths = model.encode_stories([story_ids])
        beams = [(0.0, [vocab.aspect_id(aspect_k)], False)]
        for _ in range(max_new_tokens):
            if all(done for _, _, done in beams):
                break
            candidates = []
            for score, seq, done in beams:
                if done:
                    candidates.append((score, seq, True))
                    continue
                logits = prefix_step_logits(model, seq, states, enc_lengths)
                logp = logits - np.log(np.exp(logits - logits.max()).sum()) - logits.max()
                for tok in np.argsort(-logits, kind="stable")[:width].tolist():
                    candidates.append((score + float(logp[tok]), seq + [tok],
                                       tok == vocab.eos_id))
            candidates.sort(key=lambda c: -c[0])
            beams = candidates[:width]
    body = beams[0][1][1:]
    if body and body[-1] == vocab.eos_id:
        body = body[:-1]
    return np.asarray(body, dtype=np.int64)


def reference_score(model, id_seqs, top_aspects: int, max_new_tokens: int,
                    beam: int) -> list[dict]:
    """``score``'s heads and comment ids per story, from two calls: ``Model.infer``
    for the heads, then ``generate_comments`` over every (story, top aspect) job.

    This is the composition, each story encoded twice, that ``score``'s walk
    over ``Model.encoded`` replaced.
    """
    p_s, a_c, a_r = model.infer(id_seqs)
    jobs = [(i, k) for i, conf in enumerate(a_c)
            for k in np.argsort(-conf, kind="stable")[:top_aspects].tolist()]
    toks = model.generate_comments([id_seqs[i] for i, _ in jobs], [k for _, k in jobs],
                                   max_new_tokens, beam)
    records = [{"p_s": p, "a_c": c, "a_r": r, "comments": {}} for p, c, r in zip(p_s, a_c, a_r)]
    for (i, k), ids in zip(jobs, toks):
        records[i]["comments"][str(k)] = ids
    return records


def reference_train_step(trainer, batch):
    """``Trainer.train_step`` with the preferred, rejected and negative
    stories encoded in three separate passes, and the stories its comment
    loss picks encoded once more, by ``Model.comment_nll``.

    This is the step that one merged encoder pass replaced.  Its aspect
    rows, taken from two batches, are joined by 0/1 selection matmuls.  It
    draws the negatives and then the comment picks from the step's own
    ``trainer_step:{step}`` stream, as the merged step does.
    """
    cfg, model, b = trainer.config, trainer.model, len(batch)
    params = model.params
    rng = rng_mod.stream(cfg.seed, f"trainer_step:{trainer.step}")
    keep, neg_seqs = [], []
    for i, p in enumerate(batch):
        cands = trainer._neg_ids.get(p.low_id) if cfg.use_negatives else None
        if cands:
            keep.append(i)
            neg_seqs.append(cands[int(rng.integers(len(cands)))])
    picks = trainer._comment_picks(batch, rng) if cfg.use_comments else []
    v_hi, _, _ = model.encode_stories([trainer._ids[p.high_id] for p in batch], rng=rng)
    v_lo, _, _ = model.encode_stories([trainer._ids[p.low_id] for p in batch], rng=rng)
    p_hi, p_lo = predict_preference(params, v_hi), predict_preference(params, v_lo)
    if cfg.objective == "discrimination":
        l_ps = 0.5 * (discrimination_loss(p_hi, np.ones(b))
                      + discrimination_loss(p_lo, np.zeros(b)))
    else:
        l_ps = margin_rank_loss(p_hi, p_lo, cfg.margin)
    if not cfg.use_ps:
        l_ps = 0.0
    if neg_seqs:
        v_neg, _, _ = model.encode_stories(neg_seqs, rng=rng)
        l_c2 = coherence_rank_loss(p_lo[np.asarray(keep)],
                                   predict_preference(params, v_neg), cfg.margin)
        l_ps = l_ps + l_c2 if cfg.use_ps else l_c2
    l_ac = l_ar = l_c = 0.0
    sids = [p.high_id for p in batch] + [p.low_id for p in batch]
    rows = [i for i, sid in enumerate(sids) if sid in trainer._targets]
    if cfg.use_aspects and rows:
        pick = np.eye(2 * b, dtype=v_hi.dtype)[rows]
        v_sel = matmul(ad.Tensor(pick[:, :b]), v_hi) + matmul(ad.Tensor(pick[:, b:]), v_lo)
        y_ac, y_ar = (np.stack(t) for t in zip(*(trainer._targets[sids[i]] for i in rows)))
        a_c, a_r = predict_aspects(params, v_sel)
        l_ac, l_ar = confidence_loss(a_c, y_ac), rating_loss(a_r, y_ar, y_ac)
    if picks:
        rows, aspects, comments = zip(*picks)
        l_c = model.comment_nll([trainer._ids[sids[r]] for r in rows], aspects, comments,
                                rng=rng)
    f = [float(x) for x in (l_ps, l_ac, l_ar, l_c)]
    row = LogRow(trainer.step, lr_at(trainer.schedule, trainer.step), *f,
                 ((f[0] + f[1]) + f[2]) + f[3])
    ad.forward_backward(joint_loss(l_ps, l_ac, l_ar, l_c), params)
    trainer.opt.step(lr=row.lr)
    trainer.rows.append(row)
    trainer.step += 1
    return row


class TableModel:
    """A comment filter with known outputs: ``infer`` returns, as its aspect
    head, the probability row that ``table`` gives each comment's leading word."""

    def __init__(self, table: dict[str, list[float]]):
        self.table = {word: np.asarray(row, dtype=np.float64) for word, row in table.items()}
        self.n_classes = len(next(iter(self.table.values())))
        self.vocab = build_vocab(table, size=len(table) + 6 + self.n_classes,
                                 n_aspects=self.n_classes)
        self.config = SimpleNamespace(max_len=64)

    def infer(self, id_seqs):
        a_c = np.asarray([self.table[self.vocab.tokens[ids[1]]] for ids in id_seqs])
        a_c = a_c.reshape(len(id_seqs), self.n_classes)
        return np.zeros(len(id_seqs)), a_c, np.zeros_like(a_c)


def reference_augment(raw_comments, classifier, scorer, confidence: float = 0.9,
                      min_words: int = 15, max_words: int = 50,
                      per_aspect_cap: int | None = None):
    """``augment_comments`` one comment at a time, each scored by its own
    ``infer`` call; the loop that the two batched calls replaced."""

    def probs(model, text):
        return model.infer([tokenize(text, model.vocab, model.config.max_len)])[1][0]

    kept = []
    audit = {"total": len(raw_comments), "kept": 0, "rejected_length": 0,
             "rejected_confidence": 0, "rejected_cap": 0}
    per_aspect: dict[int, int] = {}
    for rec in raw_comments:
        text = rec["text"]
        wc = len(text.split())
        if wc < min_words or wc > max_words:
            audit["rejected_length"] += 1
            continue
        p = np.asarray(probs(classifier, text), dtype=np.float64)
        if float(p.max()) <= confidence:
            audit["rejected_confidence"] += 1
            continue
        aspect = int(np.argmax(p))
        if per_aspect_cap is not None and per_aspect.get(aspect, 0) >= per_aspect_cap:
            audit["rejected_cap"] += 1
            continue
        sentiment = int(np.argmax(probs(scorer, text))) + 1
        kept.append(CommentRecord(story_id=str(rec.get("story_id", "")),
                                  text=text, aspect=aspect,
                                  rating=rating_from_class(sentiment),
                                  source="augmented"))
        per_aspect[aspect] = per_aspect.get(aspect, 0) + 1
        audit["kept"] += 1
    return kept, audit
