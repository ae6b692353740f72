"""Encoder-decoder behavior: shapes, heads, masking, decoding."""

import sys

import numpy as np
import pytest

from storyeval import autodiff as ad
from storyeval import model as model_mod
from storyeval.autodiff import NEG_INF, Tensor, WindowLayout
from storyeval.errors import ContractViolation
from storyeval.metrics import corpus_perplexity
from storyeval.model import (
    DecoderCache,
    Model,
    ModelConfig,
    decoder_logits,
    encode,
    init_params,
    predict_aspects,
    predict_preference,
    story_rows,
)
from storyeval.vocab import build_vocab, pad_batch, tokenize

import helpers
from helpers import (
    dense_decoder_logits,
    dense_encode,
    dense_window_attention,
    encode_flags,
    greedy_comment,
    mha,
    prefix_step_logits,
    reference_beam,
    reference_heads,
    window_mask,
)

TEXTS = [
    "the knight rode through the silent forest at dawn",
    "a child found a strange key buried in the garden",
    "rain fell on the empty station where nobody waited",
]


@pytest.fixture(scope="module")
def setup():
    vocab = build_vocab(TEXTS, size=64, n_aspects=3)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_enc_layers=2,
                      n_dec_layers=2, n_heads=2, window=50, max_len=64,
                      n_aspects=3, dropout=0.0)
    model = Model(cfg, vocab, rng=np.random.default_rng(5), dtype=np.float64)
    return model, vocab, cfg


def story_ids(vocab, text, max_len=64):
    return tokenize(text, vocab, max_len)


def test_encode_shapes(setup):
    model, vocab, cfg = setup
    ids = [story_ids(vocab, t) for t in TEXTS[:2]]
    v_s, states, lengths = model.encode_stories(ids)
    assert v_s.shape == (2, cfg.d_model)
    assert states.shape == (sum(len(i) for i in ids), cfg.d_model)
    assert np.array_equal(v_s.data, states.data[[0, len(ids[0])]])


def test_encode_deterministic(setup):
    model, vocab, _ = setup
    ids = [story_ids(vocab, TEXTS[0])]
    a = model.encode_stories(ids)[0].data
    b = model.encode_stories(ids)[0].data
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-10)])
def test_banded_encoder_equals_dense_oracle(dtype, tol):
    # window 4, so one chunk spans 12 keys: T=10 runs as one chunk over all
    # keys, T=23 and T=37 as chunks of 4 (neither a multiple of 4); each
    # batch mixes lengths, so most rows carry key padding
    cfg = ModelConfig(vocab_size=40, d_model=16, n_enc_layers=2, n_dec_layers=1,
                      n_heads=2, window=4, max_len=40, n_aspects=3, dropout=0.0)
    rng = np.random.default_rng(11)
    params = init_params(cfg, rng, dtype=dtype)
    for name, p in params.items():
        if ".attn.w" in name:   # O(1) scores, so the softmax is far from uniform
            p.data[:] = rng.normal(0.0, 0.4, p.shape)
    checked = 0
    for t in (10, 23, 37):
        lengths = np.array([t, t - 6, 4, t - 1])
        seqs = [rng.integers(7, 40, size=n) for n in lengths]
        ids, lengths = pad_batch(seqs, 0)
        v_s, states = encode(params, cfg, ids, lengths)
        ref_v, ref_states = dense_encode(params, cfg, ids, lengths)
        # packed states are the real rows only, story by story
        bi, ti = np.nonzero(np.arange(ids.shape[1]) < lengths[:, None])
        assert states.dtype == dtype
        assert states.shape == (lengths.sum(), cfg.d_model)
        assert np.max(np.abs(states.data - ref_states.data[bi, ti])) <= tol
        heads = (predict_preference(params, v_s), *predict_aspects(params, v_s))
        ref = (predict_preference(params, ref_v), *predict_aspects(params, ref_v))
        for got, want in zip(heads, ref):
            assert np.max(np.abs(got.data - want.data)) <= tol
        checked += 1
    assert checked == 3


def _cls_layouts(n_layers, dtype, dropout=0.0, seed=11):
    """Params with O(1) attention scores and the dense-oracle test's batches:
    window 4, T = 10 (one chunk, T <= 3 * window), 23 and 37 (chunks of 4),
    each with a one-token story and key padding on most rows."""
    cfg = ModelConfig(vocab_size=40, d_model=16, n_enc_layers=n_layers, n_dec_layers=1,
                      n_heads=2, window=4, max_len=40, n_aspects=3, dropout=dropout)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng, dtype=dtype)
    for name, p in params.items():
        if ".attn.w" in name:
            p.data[:] = rng.normal(0.0, 0.4, p.shape)
    batches = [pad_batch([rng.integers(7, 40, size=n) for n in (t, t - 6, 1, 4, t - 1)], 0)
               for t in (10, 23, 37)]
    return cfg, params, batches


@pytest.mark.parametrize("n_layers", [1, 2])
def test_heads_only_encode_equals_the_full_cls_rows(n_layers):
    """float32: without states the last layer runs for the [CLS] rows alone,
    and its v_s equals the full encode's [CLS] rows."""
    cfg, params, batches = _cls_layouts(n_layers, np.float32)
    for ids, lengths in batches:
        want, states = encode(params, cfg, ids, lengths)
        got, none = encode(params, cfg, ids, lengths, states=False)
        assert none is None and got.dtype == np.float32 and got.shape == want.shape
        assert np.array_equal(want.data, states.data[np.cumsum(lengths) - lengths])
        assert np.max(np.abs(got.data - want.data)) <= 1e-5


def test_heads_only_gradients_equal_the_full_path():
    """float64: a loss that reads only v_s has the same parameter gradients
    through the heads-only encode as through the full one."""
    grads = []
    for states in (True, False):
        cfg, params, batches = _cls_layouts(2, np.float64)
        weights = np.random.default_rng(1)
        loss = 0.0
        for ids, lengths in batches:
            v_s, _ = encode(params, cfg, ids, lengths, states=states)
            a_c, a_r = predict_aspects(params, v_s)
            for head in (predict_preference(params, v_s), a_c, a_r):
                loss = loss + (head * weights.standard_normal(head.shape)).sum()
        ad.forward_backward(loss, params)
        grads.append({name: p.grad for name, p in params.items()})
    full, heads = grads
    for name, g in full.items():
        assert np.max(np.abs(heads[name] - g)) <= 1e-12, name
    assert all(np.any(full[f"enc1.attn.{m}"]) for m in ("wq", "wk", "wv", "wo"))


def test_heads_only_dropout_follows_the_generator():
    """With dropout, two heads-only encodes with equal generators give equal
    v_s, and dropout does change it."""
    cfg, params, batches = _cls_layouts(2, np.float32, dropout=0.3)
    for ids, lengths in batches:
        runs = [encode(params, cfg, ids, lengths, rng=np.random.default_rng(9),
                       states=False)[0].data for _ in range(2)]
        plain = encode(params, cfg, ids, lengths, states=False)[0].data
        assert np.array_equal(runs[0], runs[1]) and not np.allclose(runs[0], plain)


def test_only_state_readers_run_the_full_last_layer(setup, monkeypatch):
    """``infer`` reads v_s alone, so it encodes heads-only; generation and the
    perplexity read the token states, so they encode in full."""
    model, vocab, _ = setup
    seqs = [story_ids(vocab, t) for t in TEXTS]
    comment = np.asarray([vocab.bos_id, vocab.id_of("rain"), vocab.eos_id])
    assert encode_flags(monkeypatch, lambda: model.infer(seqs)) == [False]
    assert encode_flags(monkeypatch, lambda: model.generate_comments(
        seqs, [0, 1, 2], max_new_tokens=2)) == [True]
    assert encode_flags(monkeypatch, lambda: corpus_perplexity(
        model, [(s, 0, comment) for s in seqs])) == [True]


def test_window_attention_equals_dense_oracle_on_random_layouts():
    # windows from 1 up to past the length, single-token sequences and
    # padded rows; the op reads and writes only the real rows, packed, and
    # each must equal the oracle's row
    rng = np.random.default_rng(3)
    for _ in range(60):
        b, t = int(rng.integers(1, 4)), int(rng.integers(1, 40))
        window = int(rng.integers(1, 14))
        lengths = rng.integers(1, t + 1, size=b)
        lengths[0] = t
        q, k, v = (rng.standard_normal((b, t, 2, 3)) for _ in range(3))
        layout = WindowLayout(lengths, t, window, np.float64)
        bi, ti = layout.bi, layout.ti
        assert np.array_equal(np.bincount(bi, minlength=b), lengths)
        got = ad.window_attention(*(Tensor(x[bi, ti]) for x in (q, k, v)), layout).data
        want = dense_window_attention(q, k, v, window_mask(lengths, t, window, np.float64))
        assert np.max(np.abs(got - want[bi, ti])) <= 1e-10, (b, t, window, lengths)


def test_encoder_projections_see_only_real_rows(setup, monkeypatch):
    model, vocab, cfg = setup
    ids, lengths = pad_batch([story_ids(vocab, t) for t in
                              (TEXTS[0], "a child", TEXTS[2] + " and then it ended")],
                             vocab.pad_id)
    assert len(set(lengths)) == 3
    rows, real = [], ad.linear

    def spy(x, w, b=None):
        rows.append(x.shape[:-1])
        return real(x, w, b)

    monkeypatch.setattr(ad, "linear", spy)
    encode(model.params, cfg, ids, lengths)
    # q, k, v, o and the two feed-forward layers of every block
    assert rows == [(lengths.sum(),)] * (6 * cfg.n_enc_layers)


def test_comment_nll_encodes_each_story_once_and_projects_packed_rows(setup, monkeypatch):
    """Four comments on three stories: one encode of the three, and the
    cross-attention keys and values projected on each comment's story rows,
    packed, with no padded row."""
    model, vocab, cfg = setup
    stories = [story_ids(vocab, t) for t in (TEXTS[0], "a child", TEXTS[2])]
    picks = [stories[0], stories[1], stories[0].copy(), stories[2]]
    comments = [np.array([vocab.bos_id, vocab.id_of("the"), vocab.eos_id])] * 4
    encoded, projected = [], []
    real_encode, real_heads = model_mod.encode, model_mod._heads

    def encode_spy(params, config, ids, lengths, **kw):
        encoded.append(ids.shape[0])
        return real_encode(params, config, ids, lengths, **kw)

    def heads_spy(params, name, x, n_heads):
        if ".cross." in name:
            projected.append(x.shape)
        return real_heads(params, name, x, n_heads)

    monkeypatch.setattr(model_mod, "encode", encode_spy)
    monkeypatch.setattr(model_mod, "_heads", heads_spy)
    got = model.comment_nll(picks, [0, 1, 2, 0], comments, reduce="sum")
    monkeypatch.undo()
    assert encoded == [3]
    assert projected == [(sum(len(s) for s in picks), cfg.d_model)] * (2 * cfg.n_dec_layers)
    want = sum(float(model.comment_nll([s], [k], [c], reduce="sum").data)
               for s, k, c in zip(picks, [0, 1, 2, 0], comments))
    assert abs(float(got.data) - want) <= 1e-10


def test_oversize_input_rejected(setup):
    model, vocab, cfg = setup
    too_long = np.zeros(cfg.max_len + 1, dtype=np.int64)
    padded, lengths = pad_batch([too_long], vocab.pad_id)
    with pytest.raises(ContractViolation):
        encode(model.params, cfg, padded, lengths)


def _reference_full_attention(params, cfg, ids):
    """Independent dense-attention encoder in plain numpy."""
    p = {k: v.data for k, v in params.items()}
    d, nh = cfg.d_model, cfg.n_heads
    dk = d // nh
    t = len(ids)

    def ln(v, g, b):
        mu = v.mean(-1, keepdims=True)
        var = v.var(-1, keepdims=True)
        return (v - mu) / np.sqrt(var + 1e-5) * g + b

    x = p["tok_emb"][ids] + p["pos_emb"][:t]
    for i in range(cfg.n_enc_layers):
        pre = f"enc{i}"
        y = ln(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        q = (y @ p[f"{pre}.attn.wq"]).reshape(t, nh, dk).transpose(1, 0, 2)
        k = (y @ p[f"{pre}.attn.wk"]).reshape(t, nh, dk).transpose(1, 0, 2)
        v = (y @ p[f"{pre}.attn.wv"]).reshape(t, nh, dk).transpose(1, 0, 2)
        s = q @ k.transpose(0, 2, 1) / np.sqrt(dk)
        e = np.exp(s - s.max(-1, keepdims=True))
        a = e / e.sum(-1, keepdims=True)
        ctx = (a @ v).transpose(1, 0, 2).reshape(t, d)
        x = x + ctx @ p[f"{pre}.attn.wo"]
        y = ln(x, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        x = x + (np.maximum(y @ p[f"{pre}.ff.w1"] + p[f"{pre}.ff.b1"], 0.0)
                 @ p[f"{pre}.ff.w2"] + p[f"{pre}.ff.b2"])
    return ln(x, p["enc_ln.g"], p["enc_ln.b"])


def test_window_covering_sequence_equals_full_attention(setup):
    model, vocab, cfg = setup
    ids = story_ids(vocab, TEXTS[0])
    assert cfg.window >= len(ids)
    _, states, _ = model.encode_stories([ids])
    ref = _reference_full_attention(model.params, cfg, ids)
    assert states.shape == ref.shape
    assert np.max(np.abs(states.data - ref)) <= 1e-5


def test_padding_does_not_change_heads(setup, monkeypatch):
    model, vocab, cfg = setup
    ids = story_ids(vocab, TEXTS[1])
    bare, bare_len = pad_batch([ids], vocab.pad_id)
    padded = np.concatenate([ids, np.full(7, vocab.pad_id, dtype=np.int64)])[None, :]
    v1, _ = encode(model.params, cfg, bare, bare_len)
    v2, _ = encode(model.params, cfg, padded, bare_len)
    for head in (predict_preference, ):
        assert np.max(np.abs(head(model.params, v1).data
                             - head(model.params, v2).data)) <= 1e-5
    c1, r1 = predict_aspects(model.params, v1)
    c2, r2 = predict_aspects(model.params, v2)
    assert np.max(np.abs(c1.data - c2.data)) <= 1e-5
    assert np.max(np.abs(r1.data - r2.data)) <= 1e-5
    # batched inference pads a mixed-length batch; a budget of two of the
    # longest stories splits it into chunks of 2
    seqs = [story_ids(vocab, t) for t in TEXTS + [TEXTS[0] + " and then it ended"]]
    assert len({len(s) for s in seqs}) > 1
    want = reference_heads(model, seqs)
    for budget in (model_mod.INFER_TOKENS, 2 * max(len(s) for s in seqs)):
        monkeypatch.setattr(model_mod, "INFER_TOKENS", budget)
        for got, ref in zip(model.infer(seqs), want):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-5


def test_infer_chunks_within_the_token_budget(setup, monkeypatch):
    """Stories of mixed lengths, in shuffled order, scored in length-sorted
    chunks of at most INFER_TOKENS padded tokens, equal the per-story
    oracle in input order; a story longer than the budget is a chunk alone,
    and a story given twice is encoded once."""
    _, vocab, _ = setup
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_enc_layers=2,
                      n_dec_layers=1, n_heads=2, window=4, max_len=64,
                      n_aspects=3, dropout=0.0)
    model = Model(cfg, vocab, rng=np.random.default_rng(6))
    words = " ".join(TEXTS * 2).split()
    counts = np.random.default_rng(0).permutation([1, 3, 3, 6, 11, 17, 25, 47])
    seqs = [story_ids(vocab, " ".join(words[:n])) for n in counts]
    budget = 36
    assert max(len(s) for s in seqs) > budget
    chunks, real = [], model.encode_stories

    def recording(id_seqs, **kw):
        chunks.append((len(id_seqs), max(len(s) for s in id_seqs)))
        return real(id_seqs, **kw)

    monkeypatch.setattr(model_mod, "INFER_TOKENS", budget)
    monkeypatch.setattr(model, "encode_stories", recording)
    got = model.infer(seqs)
    monkeypatch.undo()
    for part, ref in zip(got, reference_heads(model, seqs)):
        assert part.shape == ref.shape
        assert np.max(np.abs(part - ref)) <= 1e-5
    # the two 3-word stories are one story
    assert sum(rows for rows, _ in chunks) == len({s.tobytes() for s in seqs}) == 7
    assert all(rows * t <= budget or rows == 1 for rows, t in chunks)
    assert max(rows for rows, _ in chunks) > 1
    assert any(rows == 1 and t > budget for rows, t in chunks)


def test_encode_walk_yields_each_input_once(setup, monkeypatch):
    """``Model.encoded`` walks the inputs in length-sorted groups of at most
    ``budget`` padded tokens; each group's distinct stories are encoded once,
    their packed states equal each story's own encoding, and the heads of
    each input equal the per-story oracle's."""
    model, vocab, cfg = setup
    words = " ".join(TEXTS * 2).split()
    counts = np.random.default_rng(2).permutation([1, 3, 3, 6, 11, 17, 25, 47])
    seqs = [story_ids(vocab, " ".join(words[:n])) for n in counts]
    monkeypatch.setattr(model_mod, "INFER_TOKENS", 36)
    want, seen, shared = reference_heads(model, seqs), [], []
    for group, heads, states, lengths, picks in model.encoded(seqs, 80):
        seen.append(group.tolist())
        shared.append(len(lengths) < len(group))
        assert len(group) * max(len(seqs[i]) for i in group) <= 80 or len(group) == 1
        assert states.shape == (lengths.sum(), cfg.d_model) and len(lengths) == picks.max() + 1
        for j, i in enumerate(group):
            assert lengths[picks[j]] == len(seqs[i])
            alone = model.encode_stories([seqs[i]])[1].data
            assert np.max(np.abs(states.data[story_rows(lengths, picks[[j]])] - alone)) <= 1e-5
        for got, ref in zip(heads, want):
            assert np.max(np.abs(got - ref[group])) <= 1e-5
    assert sorted(sum(seen, [])) == list(range(len(seqs))) and len(seen) > 1
    # the two 3-word stories are one story, encoded once for both inputs
    assert sum(shared) == 1
    assert list(model.encoded([], 80)) == []


def test_zero_preference_head_gives_half(setup):
    model, _, cfg = setup
    v_s = Tensor(np.random.default_rng(0).standard_normal((4, cfg.d_model)))
    saved = model.params["w_ps"].data.copy()
    model.params["w_ps"].data[:] = 0.0
    try:
        p = predict_preference(model.params, v_s).data
        assert np.allclose(p, 0.5)
    finally:
        model.params["w_ps"].data[:] = saved


def test_large_logit_saturates(setup):
    model, _, cfg = setup
    v_s = Tensor(np.ones((1, cfg.d_model)))
    saved = model.params["w_ps"].data.copy()
    model.params["w_ps"].data[:] = 10.0
    try:
        p = predict_preference(model.params, v_s).data
        assert p[0] > 0.999999
    finally:
        model.params["w_ps"].data[:] = saved


def test_aspect_heads_zero_weights(setup):
    model, _, cfg = setup
    k = cfg.n_aspects
    v_s = Tensor(np.random.default_rng(1).standard_normal((2, cfg.d_model)))
    saved_c = model.params["w_ac"].data.copy()
    saved_r = model.params["w_ar"].data.copy()
    model.params["w_ac"].data[:] = 0.0
    model.params["w_ar"].data[:] = 0.0
    try:
        a_c, a_r = predict_aspects(model.params, v_s)
        assert np.allclose(a_c.data, 1.0 / k)
        assert np.allclose(a_r.data, 0.5)
    finally:
        model.params["w_ac"].data[:] = saved_c
        model.params["w_ar"].data[:] = saved_r


def test_softmax_one_hot_logit():
    vocab = build_vocab(["a b c"], size=20, n_aspects=10)
    cfg = ModelConfig(vocab_size=20, d_model=16, n_heads=2, n_aspects=10,
                      window=4, max_len=8, dropout=0.0)
    params = init_params(cfg, np.random.default_rng(0), dtype=np.float64)
    params["w_ac"].data[:] = 0.0
    params["w_ac"].data[0, 0] = 1.0
    v_s = Tensor(np.eye(1, 16))
    a_c, _ = predict_aspects(params, v_s)
    assert abs(a_c.data[0, 0] - np.e / (np.e + 9.0)) < 1e-9


def test_confidences_live_on_the_simplex(setup):
    model, _, cfg = setup
    v_s = Tensor(np.random.default_rng(2).standard_normal((1000, cfg.d_model)))
    a_c, a_r = predict_aspects(model.params, v_s)
    assert np.max(np.abs(a_c.data.sum(axis=1) - 1.0)) <= 1e-5
    assert np.all((a_r.data > 0.0) & (a_r.data < 1.0))


def test_greedy_generation_deterministic(setup):
    model, vocab, _ = setup
    ids = story_ids(vocab, TEXTS[2])
    a = model.generate_comments([ids], [1], max_new_tokens=8)[0]
    b = model.generate_comments([ids], [1], max_new_tokens=8)[0]
    assert np.array_equal(a, b)


def test_beam_width_one_equals_greedy(setup):
    model, vocab, cfg = setup
    # every decoder state becomes the all-ones vector and only <eos> reads
    # it, so decoding stops before the first word
    eos_first = Model(cfg, vocab, rng=np.random.default_rng(5), dtype=np.float64)
    eos_first.params["dec_ln.g"].data[:] = 0.0
    eos_first.params["dec_ln.b"].data[:] = 1.0
    eos_first.params["w_out"].data[:] = 0.0
    eos_first.params["w_out"].data[:, vocab.eos_id] = 1.0
    cases = [(model, TEXTS[0], 0), (model, TEXTS[1], 2), (model, TEXTS[2], 1),
             (eos_first, TEXTS[0], 1)]
    lengths = []
    for m, text, k in cases:
        ids = story_ids(vocab, text)
        want = greedy_comment(m, ids, k, max_new_tokens=8)
        got = m.generate_comments([ids], [k], max_new_tokens=8, beam=1)[0]
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        lengths.append(len(got))
    assert lengths[-1] == 0 and max(lengths) > 0
    beam = model.generate_comments([story_ids(vocab, TEXTS[0])], [0], max_new_tokens=8, beam=2)[0]
    assert beam.dtype == np.int64


def test_invalid_aspect_rejected(setup):
    model, vocab, _ = setup
    ids = story_ids(vocab, TEXTS[0])
    with pytest.raises(ContractViolation):
        model.generate_comments([ids], [99])


def test_uniform_decoder_nll_is_log_vocab(setup):
    model, vocab, _ = setup
    ids = story_ids(vocab, TEXTS[1])
    comment = np.array([vocab.bos_id, vocab.id_of("the"), vocab.id_of("rain"),
                        vocab.eos_id])
    saved = model.params["w_out"].data.copy()
    model.params["w_out"].data[:] = 0.0
    try:
        nll = model.comment_nll([ids], [0], [comment], reduce="mean")
        assert abs(float(nll.data) - np.log(len(vocab))) < 1e-9
        total = model.comment_nll([ids], [0], [comment], reduce="sum")
        assert abs(float(total.data) - 3 * np.log(len(vocab))) < 1e-9
    finally:
        model.params["w_out"].data[:] = saved


def test_nll_requires_bos_eos(setup):
    model, vocab, _ = setup
    ids = story_ids(vocab, TEXTS[1])
    with pytest.raises(ContractViolation):
        model.comment_nll([ids], [0], [np.array([vocab.id_of("the")])])
    with pytest.raises(ContractViolation):
        model.comment_nll([ids], [0], [np.array([vocab.bos_id, vocab.unk_id])])
    comment = np.array([vocab.bos_id, vocab.eos_id])
    with pytest.raises(ContractViolation, match="unknown reduce 'max'"):
        model.comment_nll([ids], [0], [comment], reduce="max")
    _, states, lengths = model.encode_stories([ids])
    with pytest.raises(ContractViolation, match="unknown reduce 'max'"):
        model.encoded_comment_nll(states, lengths, [0], [0], [comment], reduce="max")


def test_evaluate_story_output_contract(setup):
    model, vocab, cfg = setup
    seqs = [story_ids(vocab, t) for t in TEXTS]
    p_s, a_c, a_r = model.infer(seqs)
    assert p_s.shape == (len(TEXTS),)
    assert a_c.shape == a_r.shape == (len(TEXTS), cfg.n_aspects)
    assert np.all((p_s >= 0.0) & (p_s <= 1.0))
    assert np.max(np.abs(a_c.sum(axis=1) - 1.0)) <= 1e-5
    assert np.all((a_r >= 0.0) & (a_r <= 1.0))
    # inference leaves the parameters trainable
    assert all(p.requires_grad for p in model.params.values())
    assert [x.shape for x in model.infer([])] == [(0,), (0, cfg.n_aspects),
                                                 (0, cfg.n_aspects)]


def test_batched_perplexity_matches_per_item_nll(setup, monkeypatch):
    model, vocab, _ = setup
    words = [vocab.id_of(w) for w in "the rain fell on the key in the garden".split()]
    items = []
    for i in range(7):
        body = words[: 1 + i % 5]
        items.append((story_ids(vocab, TEXTS[i % 3]), i % 3,
                      np.asarray([vocab.bos_id] + body + [vocab.eos_id])))
    assert len({len(c) for _, _, c in items}) > 1
    total = sum(float(model.comment_nll([s], [k], [c], reduce="sum").data)
                for s, k, c in items)
    tokens = sum(len(c) - 1 for _, _, c in items)
    encoded, real_encode = [], model_mod.encode

    def encode_spy(params, config, ids, lengths, **kw):
        encoded.append(sorted(row[:n].tobytes() for row, n in zip(ids, lengths)))
        return real_encode(params, config, ids, lengths, **kw)

    monkeypatch.setattr(model_mod, "encode", encode_spy)
    # one walk group at the default budget, then groups of at most two items
    for budget in (model_mod.INFER_TOKENS, 25):
        monkeypatch.setattr(model_mod, "INFER_TOKENS", budget)
        encoded.clear()
        assert abs(corpus_perplexity(model, items) - np.exp(total / tokens)) <= 1e-6
        groups = model_mod.token_chunks([len(s) for s, _, _ in items], budget)
        # each group is one encode chunk of its distinct stories: 3 for all 7 items
        # at the default budget
        assert encoded == [sorted({items[i][0].tobytes() for i in g}) for g in groups]
    assert len(groups) >= 2


def test_token_chunks_runs_only_inside_the_encode_walk(setup, monkeypatch):
    """``token_chunks`` is the one batching rule, and ``Model.encoded`` its one
    caller: inference, generation, the graph loss and the perplexity all reach
    it only through the walk (the loss, one batch, not at all)."""
    model, vocab, _ = setup
    seqs = [story_ids(vocab, t) for t in TEXTS]
    comments = [np.array([vocab.bos_id, vocab.id_of("the"), vocab.eos_id])] * len(seqs)
    callers, real_chunks = [], model_mod.token_chunks

    def chunks_spy(lengths, budget):
        callers.append(sys._getframe(1).f_code)
        return real_chunks(lengths, budget)

    monkeypatch.setattr(model_mod, "token_chunks", chunks_spy)
    calls = {"infer": lambda: model.infer(seqs),
             "generate_comments": lambda: model.generate_comments(seqs, [0, 1, 2], 2),
             "comment_nll": lambda: model.comment_nll(seqs, [0, 1, 2], comments),
             "corpus_perplexity": lambda: corpus_perplexity(model, zip(seqs, [0, 1, 2],
                                                                       comments))}
    for name, call in calls.items():
        callers.clear()
        call()
        assert set(callers) <= {Model.encoded.__code__}, name
        assert bool(callers) == (name != "comment_nll"), name


def eos_prone(model, vocab, scale=6.0):
    """A copy of ``model`` whose <eos> logit is scaled up, so hypotheses
    finish at different steps."""
    params = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in model.params.items()}
    params["w_out"].data[:, vocab.eos_id] *= scale
    return Model(model.config, vocab, params=params)


@pytest.mark.parametrize("causal,tq,tk,lengths", [
    (False, 4, 4, None), (False, 3, 7, [7, 2]), (True, 5, 5, [5, 3]),
    (True, 2, 6, [6, 4]), (True, 1, 6, None)])
def test_attention_equals_dense_oracle(causal, tq, tk, lengths):
    rng = np.random.default_rng(tq * 10 + tk)
    d, heads = 12, 3
    params = {f"a.{m}": Tensor(rng.standard_normal((d, d)) * 0.5, requires_grad=True)
              for m in ("wq", "wk", "wv", "wo")}
    xq = Tensor(rng.standard_normal((2, tq, d)), requires_grad=True)
    xkv = Tensor(rng.standard_normal((2, tk, d)), requires_grad=True)
    weights = rng.standard_normal((2, tq, d))
    hidden = np.zeros((2, 1, tq, tk), dtype=bool)
    if lengths is not None:
        hidden |= (np.arange(tk) >= np.asarray(lengths)[:, None])[:, None, None, :]
    if causal:
        hidden |= np.arange(tk) > np.arange(tq)[:, None] + (tk - tq)
    mask = np.where(hidden, NEG_INF, 0.0)

    def run(fused):
        for t in (*params.values(), xq, xkv):
            t.grad = None
        if fused:
            q, k, v = (ad.linear(x, params[f"a.{m}"]).reshape(2, -1, heads, d // heads)
                       for x, m in ((xq, "wq"), (xkv, "wk"), (xkv, "wv")))
            ctx = ad.attention(q, k, v, None if lengths is None else np.asarray(lengths), causal)
            out = ad.linear(ctx.reshape(2, tq, d), params["a.wo"])
        else:
            out = mha(params, "a", xq, xkv, mask, heads, 0.0, None)
        (out * weights).sum().backward()
        return [out.data] + [t.grad for t in (*params.values(), xq, xkv)]

    for got, want in zip(run(True), run(False)):
        assert np.max(np.abs(got - want)) <= 1e-10


def test_decoder_equals_dense_oracle(setup):
    model, vocab, cfg = setup
    seqs = [story_ids(vocab, t) for t in TEXTS]
    _, states, enc_lengths = model.encode_stories(seqs)
    rng = np.random.default_rng(3)
    lengths = np.array([6, 2, 4])
    comment = rng.integers(6, len(vocab), (3, 6))
    got = decoder_logits(model.params, cfg, comment, lengths, states, enc_lengths).data
    want = dense_decoder_logits(model.params, cfg, comment, lengths, states, enc_lengths).data
    for row, n in enumerate(lengths):
        assert np.max(np.abs(got[row, :n] - want[row, :n])) <= 1e-10


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_cached_steps_equal_full_prefix_loop(setup, dtype):
    _, vocab, cfg = setup
    model = Model(cfg, vocab, rng=np.random.default_rng(8), dtype=dtype)
    seqs = [story_ids(vocab, t) for t in TEXTS]
    prefixes = [[vocab.aspect_id(k)] for k in (2, 0, 1)]
    with ad.no_grad():
        _, states, enc_lengths = model.encode_stories(seqs)
        singles = [model.encode_stories([s])[1:] for s in seqs]
        cache = DecoderCache(10)
        for _ in range(10):
            last = np.asarray([p[-1] for p in prefixes])[:, None]
            step = decoder_logits(model.params, cfg, last, None, states, enc_lengths,
                                  cache=cache).data[:, 0]
            for row, (prefix, (st, el)) in enumerate(zip(prefixes, singles)):
                want = prefix_step_logits(model, prefix, st, el)
                assert np.max(np.abs(step[row] - want)) <= 1e-5
                prefix.append(int(np.argsort(-want, kind="stable")[row % 3]))


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_batched_search_equals_per_hypothesis_oracle(setup, width):
    model, vocab, _ = setup
    seqs = [story_ids(vocab, t) for t in TEXTS]
    lengths = []
    for m in (model, eos_prone(model, vocab)):
        pairs = [(s, k) for s in seqs for k in range(3)]
        got = m.generate_comments([s for s, _ in pairs], [k for _, k in pairs],
                                  max_new_tokens=8, beam=width)
        for (s, k), ids in zip(pairs, got):
            want = reference_beam(m, s, k, max_new_tokens=8, width=width)
            assert ids.dtype == np.int64
            assert np.array_equal(ids, want)
            lengths.append(len(ids))
    assert len(set(lengths)) > 1


@pytest.mark.parametrize("beam", [1, 2, 4])
def test_one_decoder_position_per_token(setup, monkeypatch, beam):
    model, vocab, _ = setup
    m = eos_prone(model, vocab, scale=7.0)   # two pairs end early at every width
    seqs = [story_ids(vocab, t) for t in TEXTS]
    pairs = [(s, k) for s in seqs for k in range(3)]
    singles = [m.generate_comments([s], [k], max_new_tokens=8, beam=beam)[0] for s, k in pairs]
    # the per-pair reference search steps while any hypothesis of the pair is
    # open; the longest prefix it feeds the decoder counts its steps
    ref_steps, real_prefix = [], helpers.prefix_step_logits

    def prefix_spy(model, prefix, *args):
        ref_steps[-1] = max(ref_steps[-1], len(prefix))
        return real_prefix(model, prefix, *args)

    monkeypatch.setattr(helpers, "prefix_step_logits", prefix_spy)
    for (s, k), single in zip(pairs, singles):
        ref_steps.append(0)
        assert np.array_equal(single, reference_beam(m, s, k, max_new_tokens=8, width=beam))
        if beam == 1:
            assert np.array_equal(single, greedy_comment(m, s, k, max_new_tokens=8))
    shapes, projected = [], []
    real_logits, real_heads = model_mod.decoder_logits, model_mod._heads

    def spy(params, config, comment_in, *args, **kwargs):
        shapes.append(comment_in.shape)
        return real_logits(params, config, comment_in, *args, **kwargs)

    def heads_spy(params, name, x, n_heads):
        projected.append(name)
        return real_heads(params, name, x, n_heads)

    monkeypatch.setattr(model_mod, "decoder_logits", spy)
    monkeypatch.setattr(model_mod, "_heads", heads_spy)
    got = m.generate_comments([s for s, _ in pairs], [k for _, k in pairs],
                              max_new_tokens=8, beam=beam)
    assert all(np.array_equal(a, b) for a, b in zip(got, singles))
    # one new position per hypothesis row of the unfinished pairs: one row
    # each on the first step, then beam rows each; finished pairs leave
    open_pairs = [sum(n > step for n in ref_steps) for step in range(max(ref_steps))]
    assert shapes == [(n * (1 if step == 0 else beam), 1) for step, n in enumerate(open_pairs)]
    assert 1 <= len(shapes) <= 8
    assert open_pairs[0] == len(pairs) and open_pairs[-1] < len(pairs)
    # the encoder states are projected to cross-attention K/V once per layer
    assert sum(".cross." in name for name in projected) == 2 * m.config.n_dec_layers


def test_generating_no_pairs_returns_nothing(setup):
    model, _, _ = setup
    assert model.generate_comments([], []) == []


def test_greedy_steps_copy_no_cache_buffer(setup, monkeypatch):
    """At beam 1, until a pair ends, no self-attention row moves, so the
    cache keeps its buffer objects from step to step."""
    model, vocab, _ = setup
    m = eos_prone(model, vocab, scale=0.0)   # an <eos> logit of 0 never wins here
    seqs, aspects = [story_ids(vocab, t) for t in TEXTS], [0, 2, 1]
    kept, real = [], DecoderCache.reorder

    def spy(cache, rows, stories=None):
        before = dict(cache.buffers)
        real(cache, rows, stories)
        kept.append(bool(before) and all(cache.buffers[n] is b for n, b in before.items()))

    monkeypatch.setattr(DecoderCache, "reorder", spy)
    got = m.generate_comments(seqs, aspects, max_new_tokens=8)
    monkeypatch.undo()
    assert kept == [True] * 8
    for s, k, ids in zip(seqs, aspects, got):
        assert len(ids) == 8
        assert np.array_equal(ids, greedy_comment(m, s, k, max_new_tokens=8))


@pytest.mark.parametrize("beam", [1, 2])
def test_generation_chunks_within_the_token_budgets(setup, monkeypatch, beam):
    """Shuffled pairs of mixed lengths, decoded in groups of at most
    DECODE_TOKENS encoder tokens and encoded in chunks of at most
    INFER_TOKENS, equal the per-pair searches in input order."""
    model, vocab, cfg = setup
    words = " ".join(TEXTS * 2).split()
    counts = np.random.default_rng(1).permutation([1, 3, 3, 6, 11, 17, 25, 47])
    seqs = [story_ids(vocab, " ".join(words[:n])) for n in counts]
    aspects = [i % 3 for i in range(len(seqs))]
    infer_budget, decode_budget = 36, 80
    monkeypatch.setattr(model_mod, "INFER_TOKENS", infer_budget)
    monkeypatch.setattr(model_mod, "DECODE_TOKENS", decode_budget)
    for m in (model, eos_prone(model, vocab)):
        chunks, groups, projected = [], [], []
        real_encode, real_search, real_heads = (m.encode_stories, m.search,
                                                model_mod._heads)

        def encode_spy(id_seqs, states=True):
            assert states
            v_s, states, lengths = real_encode(id_seqs)
            chunks.append((len(lengths), lengths.max()))
            return v_s, states, lengths

        def search_spy(states, lengths, picks, *args):
            groups.append((len(picks), lengths[picks].max()))
            assert states.shape == (lengths.sum(), cfg.d_model)
            return real_search(states, lengths, picks, *args)

        def heads_spy(params, name, x, n_heads):
            projected.append(name)
            return real_heads(params, name, x, n_heads)

        monkeypatch.setattr(m, "encode_stories", encode_spy)
        monkeypatch.setattr(m, "search", search_spy)
        monkeypatch.setattr(model_mod, "_heads", heads_spy)
        got = m.generate_comments(seqs, aspects, max_new_tokens=8, beam=beam)
        # the two 3-word stories are one story, encoded once for both pairs
        assert sum(rows for rows, _ in groups) == len(seqs)
        assert sum(rows for rows, _ in chunks) == len({s.tobytes() for s in seqs}) == 7
        assert all(rows * t <= infer_budget or rows == 1 for rows, t in chunks)
        assert all(rows * t <= decode_budget or rows == 1 for rows, t in groups)
        assert max(rows for rows, _ in chunks) > 1 and len(groups) > 1
        assert any(rows == 1 and t > infer_budget for rows, t in chunks)
        # the cross-attention K/V are projected once per layer per group
        assert sum(".cross." in n for n in projected) == 2 * cfg.n_dec_layers * len(groups)
        monkeypatch.setattr(model_mod, "_heads", real_heads)
        for s, k, ids in zip(seqs, aspects, got):
            assert np.array_equal(ids, reference_beam(m, s, k, max_new_tokens=8, width=beam))
            if beam == 1:
                assert np.array_equal(ids, greedy_comment(m, s, k, max_new_tokens=8))


def test_tied_candidates_keep_expansion_order(setup):
    model, vocab, cfg = setup
    # every logit is 0: all tokens and all candidates tie, <eos> among them
    flat = Model(cfg, vocab, rng=np.random.default_rng(5), dtype=np.float64)
    flat.params["w_out"].data[:] = 0.0
    ids = story_ids(vocab, TEXTS[0])
    for width in (5, 9):
        want = reference_beam(flat, ids, 1, max_new_tokens=4, width=width)
        assert np.array_equal(flat.generate_comments([ids], [1], 4, width)[0], want)
