"""Acceptance gate: one test per shipping criterion.

Each test appends a PASS/FAIL line (with the measured numbers) to the
terminal summary via conftest, so a plain pytest run ends with a
one-line verdict per criterion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from storyeval import autodiff as ad
from storyeval import cli, losses
from storyeval import rng as rng_mod
from storyeval.aspects import (
    augment_comments,
    lda_fit,
    prepare_comment_docs,
    select_num_topics,
)
from storyeval.corpus import RankedPair, build_pairs, generate_negative, split_by_prompt
from storyeval.jsonl import write_jsonl
from storyeval.metrics import corpus_perplexity, kendall, spearman
from storyeval.model import Model, ModelConfig, predict_aspects, predict_preference
from storyeval.optim import AdamW
from storyeval.synthetic import (
    make_aspect_comments,
    make_preference_corpus,
    memorization_comments,
)
from storyeval.training import TrainConfig, TrainData, Trainer, evaluate_pairs, score_texts
from storyeval.vocab import BOS, CLS, EOS, PAD, SEP, UNK, Vocabulary, aspect_token, build_vocab, tokenize

from helpers import TableModel, rung_errors

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden" / "prepare"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {num:02d} {name}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# -- shared corpora ----------------------------------------------------------

@pytest.fixture(scope="module")
def corpus500():
    stories = make_preference_corpus(n_prompts=500, seed=0)
    pairs = build_pairs(stories)
    splits = split_by_prompt(pairs, seed=0)
    vocab = build_vocab([s.text for s in stories], size=400, n_aspects=10)
    return {s.id: s for s in stories}, splits, vocab


@pytest.fixture(scope="module")
def corpus150():
    stories = make_preference_corpus(n_prompts=150, seed=1)
    pairs = build_pairs(stories)
    splits = split_by_prompt(pairs, seed=1)
    vocab = build_vocab([s.text for s in stories], size=400, n_aspects=10)
    comments = {}
    for rec in make_aspect_comments(stories, seed=0):
        comments.setdefault(rec.story_id, []).append(rec)
    return {s.id: s for s in stories}, splits, vocab, comments


def _small_model(vocab, seed: int, d_model: int = 64) -> Model:
    cfg = ModelConfig(vocab_size=len(vocab), d_model=d_model, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, window=16, max_len=96,
                      n_aspects=10, dropout=0.0)
    return Model(cfg, vocab, rng=rng_mod.stream(seed, "init"))


# -- 1: correlation implementations vs brute force ---------------------------

def _avg_ranks(v: np.ndarray) -> np.ndarray:
    return np.array([(np.sum(v < a) + np.sum(v <= a) + 1) / 2.0 for a in v])


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).sum() / math.sqrt((a * a).sum() * (b * b).sum()))


def _bf_spearman(x, y) -> float:
    return _pearson(_avg_ranks(np.asarray(x, dtype=np.float64)),
                    _avg_ranks(np.asarray(y, dtype=np.float64)))


def _bf_kendall(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    conc = disc = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                tx += 1
            if dy == 0:
                ty += 1
            if dx != 0 and dy != 0:
                if (dx > 0) == (dy > 0):
                    conc += 1
                else:
                    disc += 1
    n0 = n * (n - 1) / 2
    return (conc - disc) / math.sqrt((n0 - tx) * (n0 - ty))


def test_01_correlation_oracles():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 51))
        x = rng.choice(20 * n, size=n, replace=False).astype(np.float64) / 7.0
        y = rng.choice(20 * n, size=n, replace=False).astype(np.float64) / 3.0
        worst = max(worst, abs(spearman(x, y) - _bf_spearman(x, y)),
                    abs(kendall(x, y) - _bf_kendall(x, y)))
    for _ in range(50):
        n = int(rng.integers(4, 51))
        while True:
            x = rng.integers(0, 5, size=n).astype(np.float64)
            y = rng.integers(0, 5, size=n).astype(np.float64)
            if len(set(x)) > 1 and len(set(y)) > 1:
                break
        worst = max(worst, abs(spearman(x, y) - _bf_spearman(x, y)),
                    abs(kendall(x, y) - _bf_kendall(x, y)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 10.0
    _report(1, "correlations vs brute force", ok,
            f"max dev {worst:.2e} over 250 vectors in {dt:.1f}s")


# -- 2: loss gradients through the full model --------------------------------

def _fd_vocab(n_aspects: int = 4) -> Vocabulary:
    words = [f"w{chr(97 + i)}" for i in range(30)]
    reserved = [CLS, SEP, PAD, BOS, EOS, UNK]
    reserved += [aspect_token(k) for k in range(n_aspects)]
    return Vocabulary(reserved + words, n_aspects)


def test_02_loss_gradients_match_finite_differences():
    t0 = time.perf_counter()
    vocab = _fd_vocab()
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_enc_layers=2,
                      n_dec_layers=2, n_heads=2, window=4, max_len=32,
                      n_aspects=4, dropout=0.0)

    def builders(model, rng):
        k = cfg.n_aspects

        def rand_ids(n):
            body = rng.integers(10, len(vocab), size=n)
            return np.concatenate([[vocab.cls_id], body]).astype(np.int64)

        ids_a = rand_ids(int(rng.integers(4, 12)))
        ids_b = rand_ids(int(rng.integers(4, 12)))
        y_conf = np.zeros((2, k))
        y_conf[0, rng.integers(k)] = 1.0
        y_conf[1, rng.integers(k)] = 1.0
        y_rate = rng.uniform(0.1, 0.9, size=(2, k))
        sel = y_conf.copy()
        comment = np.concatenate([[vocab.bos_id],
                                  rng.integers(10, len(vocab), size=5),
                                  [vocab.eos_id]]).astype(np.int64)
        comment_aspect = int(rng.integers(k))

        def scores():
            v_a, _, _ = model.encode_stories([ids_a])
            v_b, _, _ = model.encode_stories([ids_b])
            return (predict_preference(model.params, v_a),
                    predict_preference(model.params, v_b))

        def aspects():
            v, _, _ = model.encode_stories([ids_a, ids_b])
            return predict_aspects(model.params, v)

        def margin_rank():
            p_a, p_b = scores()
            return losses.margin_rank_loss(p_a, p_b, 0.3)

        def coherence():
            p_a, p_b = scores()
            return losses.coherence_rank_loss(p_a, p_b, 0.3)

        def confidence():
            a_c, _ = aspects()
            return losses.confidence_loss(a_c, y_conf)

        def rating():
            _, a_r = aspects()
            return losses.rating_loss(a_r, y_rate, sel)

        def comment_mle():
            return model.comment_nll([ids_a], [comment_aspect], [comment],
                                     reduce="mean")

        def discrimination():
            p_a, p_b = scores()
            return (losses.discrimination_loss(p_a, 1.0)
                    + losses.discrimination_loss(p_b, 0.0))

        def joint():
            a_c, a_r = aspects()
            return losses.joint_loss(
                margin_rank(), losses.confidence_loss(a_c, y_conf),
                losses.rating_loss(a_r, y_rate, sel),
                comment_mle())

        return [margin_rank, coherence, confidence, rating, comment_mle,
                discrimination, joint]

    worst = 0.0
    n_configs = 0
    for trial in range(3):
        rng = np.random.default_rng(100 + trial)
        model = Model(cfg, vocab, rng=rng_mod.stream(trial, "fd"),
                      dtype=np.float64)
        for loss_fn in builders(model, rng):
            n_configs += 1
            loss = loss_fn()
            ad.forward_backward(loss, model.params)
            grads = {n: p.grad.copy() for n, p in model.params.items()}
            live = sorted(n for n, g in grads.items() if np.abs(g).max() > 0)
            for name in rng.permutation(live)[:5]:
                p = model.params[name]
                gflat = grads[name].reshape(-1)
                nz = np.flatnonzero(np.abs(gflat) > 1e-12)
                idx = int(rng.choice(nz if nz.size else np.arange(p.data.size)))
                # a step that straddles a relu/hinge kink corrupts the
                # difference quotient; up to two refinements resolve it
                h = 1e-4 * max(1.0, abs(p.data.reshape(-1)[idx]))
                rel = rung_errors(lambda: loss_fn().data, p.data, idx, gflat[idx], h,
                                  1e-4, 1e-3)[-1]
                worst = max(worst, rel)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-3 and n_configs >= 20 and dt < 120.0
    _report(2, "loss gradients vs finite differences", ok,
            f"worst rel err {worst:.2e} over {n_configs} configs in {dt:.1f}s")


# -- 3: hand-computed loss values --------------------------------------------

def test_03_loss_spot_values():
    checks = [
        ("margin(0.4,0.3,0.3)",
         float(losses.margin_rank_loss(0.4, 0.3, 0.3).data), 0.2),
        ("margin+coherence at equal scores",
         float((losses.margin_rank_loss(0.5, 0.5, 0.3)
                + losses.coherence_rank_loss(0.5, 0.5, 0.3)).data), 0.6),
        ("confidence uniform 3-hot",
         float(losses.confidence_loss(np.full((1, 10), 0.1),
                                      np.eye(10)[[0]] + np.eye(10)[[3]]
                                      + np.eye(10)[[7]]).data),
         -3.0 * math.log(0.1)),
        ("confidence uniform 1-hot",
         float(losses.confidence_loss(np.full((1, 10), 0.1),
                                      np.eye(10)[[4]]).data), math.log(10)),
        ("rating y=a=0.5",
         float(losses.rating_loss(np.array([[0.5]]), np.array([[0.5]]),
                                  np.array([[1.0]])).data), math.log(2)),
        ("rating y=0.8 a=0.5",
         float(losses.rating_loss(np.array([[0.5]]), np.array([[0.8]]),
                                  np.array([[1.0]])).data), math.log(2)),
        ("joint sum",
         float(losses.joint_loss(0.3, math.log(10), math.log(2), 1.0)),
         0.3 + math.log(10) + math.log(2) + 1.0),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    bad = [name for name, got, want in checks if abs(got - want) > 1e-9]
    _report(3, "loss spot values", not bad,
            f"{len(checks)} hand-computed cases, max dev {worst:.2e}"
            + (f"; off: {bad}" if bad else ""))


# -- 4: windowed attention covers the sequence -------------------------------

def _dense_attention_reference(params, cfg, ids):
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


def test_04_windowed_attention_equals_full():
    vocab = _fd_vocab()
    cfg = ModelConfig(vocab_size=len(vocab), d_model=32, n_enc_layers=2,
                      n_dec_layers=1, n_heads=2, window=16, max_len=16,
                      n_aspects=4, dropout=0.0)
    worst = 0.0
    rng = np.random.default_rng(7)
    for trial in range(10):
        model = Model(cfg, vocab, rng=rng_mod.stream(trial % 2, "win"))
        n = int(rng.integers(3, cfg.window))
        ids = np.concatenate([[vocab.cls_id],
                              rng.integers(10, len(vocab), size=n)])
        _, states, _ = model.encode_stories([ids])
        ref = _dense_attention_reference(model.params, cfg, ids)
        assert states.shape == ref.shape      # one story: its rows, packed
        worst = max(worst, float(np.max(np.abs(states.data - ref))))
    ok = worst <= 1e-5
    _report(4, "windowed attention equals dense reference", ok,
            f"max abs diff {worst:.2e} over 10 inputs with window >= length")


# -- 5: end-to-end ranking on the synthetic corpus ---------------------------

def test_05_synthetic_ranking_end_to_end(corpus500):
    stories, splits, vocab = corpus500
    cfg = ModelConfig(vocab_size=len(vocab), d_model=128, n_enc_layers=2,
                      n_dec_layers=2, n_heads=4, window=32, max_len=96,
                      n_aspects=10, dropout=0.0)
    t0 = time.perf_counter()
    all_pairs = splits["train"] + splits["val"] + splits["test"]
    untrained = []
    for seed in range(100, 110):
        blank = Model(cfg, vocab, rng=rng_mod.stream(seed, "init"))
        untrained.append(evaluate_pairs(blank, stories, all_pairs))
    floor = float(np.mean(untrained))

    model = Model(cfg, vocab, rng=rng_mod.stream(0, "init"))
    data = TrainData(stories=stories, train_pairs=splits["train"],
                     val_pairs=splits["val"])
    trainer = Trainer(model, data, TrainConfig(batch_size=16, peak_lr=1e-3,
                                               epochs=3, seed=0))
    trainer.train()
    acc = evaluate_pairs(model, stories, splits["test"])
    dt = time.perf_counter() - t0
    ok = acc >= 0.90 and 0.45 <= floor <= 0.55 and dt < 900.0
    _report(5, "synthetic ranking end to end", ok,
            f"held-out acc {acc:.3f} (>=0.90), untrained mean {floor:.3f} "
            f"over 10 inits (0.50+-0.05), {dt:.0f}s")


# -- 6: ranking objective vs 0/1 classification ------------------------------

def test_06_ranking_vs_classification(corpus150):
    stories, splits, vocab, _ = corpus150
    accs = {"rank": [], "discrimination": []}
    for seed in range(3):
        for objective in accs:
            model = _small_model(vocab, seed)
            data = TrainData(stories=stories, train_pairs=splits["train"],
                             val_pairs=splits["val"])
            trainer = Trainer(model, data,
                              TrainConfig(batch_size=16, peak_lr=1e-3,
                                          epochs=5, seed=seed,
                                          objective=objective))
            trainer.train()
            accs[objective].append(evaluate_pairs(model, stories,
                                                  splits["test"]))
    rank_mean = float(np.mean(accs["rank"]))
    ce_mean = float(np.mean(accs["discrimination"]))
    ok = rank_mean >= ce_mean - 0.01
    _report(6, "ranking objective vs 0/1 classification", ok,
            f"rank {rank_mean:.3f} vs classification {ce_mean:.3f} "
            f"over 3 seeds (slack 1pt)")


# -- 7: joint training vs preference-only ------------------------------------

def test_07_joint_vs_preference_only(corpus150):
    stories, splits, vocab, comments = corpus150
    held_out = splits["val"] + splits["test"]
    accs = {"joint": [], "ps_only": []}
    for seed in range(3):
        for arm in accs:
            model = _small_model(vocab, seed)
            data = TrainData(stories=stories, train_pairs=splits["train"],
                             val_pairs=splits["val"],
                             comments=comments if arm == "joint" else {})
            cfg = TrainConfig(batch_size=16, peak_lr=1e-3, epochs=20,
                              seed=seed, use_aspects=arm == "joint",
                              use_comments=arm == "joint")
            Trainer(model, data, cfg).train()
            accs[arm].append(evaluate_pairs(model, stories, held_out))
    joint_mean = float(np.mean(accs["joint"]))
    ps_mean = float(np.mean(accs["ps_only"]))
    ok = joint_mean >= ps_mean - 0.01
    _report(7, "joint training vs preference-only", ok,
            f"joint {joint_mean:.3f} vs preference-only {ps_mean:.3f} "
            f"over 3 seeds (slack 1pt)")


# -- 8: score ordering with perturbed negatives ------------------------------

def test_08_negative_score_ordering(corpus150):
    stories, splits, vocab, _ = corpus150
    kinds = ("shuffle", "repeat", "substitute")
    negatives = {}
    for pair in splits["train"]:
        story = stories[pair.low_id]
        negatives[story.id] = [generate_negative(story, k, seed=5).text
                               for k in kinds]
    model = _small_model(vocab, 0)
    data = TrainData(stories=stories, train_pairs=splits["train"],
                     val_pairs=splits["val"], negatives=negatives)
    Trainer(model, data, TrainConfig(batch_size=16, peak_lr=1e-3, epochs=5,
                                     seed=0, use_negatives=True)).train()
    test_pairs = splits["test"]
    p_high = score_texts(model, [stories[p.high_id].text for p in test_pairs])
    p_low = score_texts(model, [stories[p.low_id].text for p in test_pairs])
    neg_texts = [generate_negative(stories[p.low_id], k, seed=99).text
                 for p in test_pairs for k in kinds]
    p_neg = score_texts(model, neg_texts)
    hi, lo, ng = (float(np.mean(v)) for v in (p_high, p_low, p_neg))
    ok = hi > lo > ng
    _report(8, "held-out score ordering with negatives", ok,
            f"mean high {hi:.3f} > low {lo:.3f} > perturbed {ng:.3f}")


# -- 9: topic recovery on a planted corpus -----------------------------------

def _planted_topic_corpus(n_topics=10, docs_per=30, doc_len=30, words_per=8,
                          noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    banks = [[f"t{chr(97 + t)}{chr(97 + i)}" for i in range(words_per)]
             for t in range(n_topics)]
    texts = []
    for t in range(n_topics):
        for _ in range(docs_per):
            toks = []
            for _ in range(doc_len):
                src = t
                if rng.random() < noise:
                    src = int(rng.integers(n_topics))
                toks.append(banks[src][int(rng.integers(words_per))])
            texts.append(" ".join(toks))
    return texts, banks


def test_09_lda_planted_topics():
    texts, banks = _planted_topic_corpus(seed=0)
    word_bank = {w: t for t, bank in enumerate(banks) for w in bank}
    docs, words = prepare_comment_docs(texts, min_count=1)
    model = lda_fit(docs, words, n_topics=10, iterations=300, seed=0)
    purities = []
    for top in model.top_words(8):
        owners = [word_bank[w] for w in top]
        majority = max(set(owners), key=owners.count)
        purities.append(owners.count(majority) / len(owners))
    purity = float(np.mean(purities))

    picks = [select_num_topics(docs, words, [5, 10, 15], seed=s,
                               iterations=200).n_topics for s in range(3)]
    hits = sum(1 for p in picks if p == 10)
    ok = purity >= 0.8 and hits >= 2
    _report(9, "planted topic recovery", ok,
            f"mean topic purity {purity:.3f} (>=0.8); "
            f"picked 10 topics in {hits}/3 seeds {picks}")


# -- 10: augmentation keeps exactly the rule-defined subset ------------------

def test_10_augmentation_exactness():
    word_counts = (10, 15, 26, 34, 42, 50)
    confidences = (0.85, 0.905, 0.95)
    raw, probs, klasses = [], {}, {}
    for i in range(50):
        wc = word_counts[i % 6]
        tag = f"c{i:02d}"
        raw.append({"story_id": f"s{i:02d}",
                    "text": tag + " " + " ".join(f"f{j}" for j in range(wc - 1))})
        pmax = confidences[(i // 3) % 3]
        probs[tag] = np.full(10, (1.0 - pmax) / 9)
        probs[tag][i % 10] = pmax
        klasses[tag] = np.eye(5)[i % 5]      # sentiment class (i % 5) + 1
    classifier = TableModel(probs)
    scorer = TableModel(klasses)
    kept, audit = augment_comments(raw, classifier, scorer)

    # hand-applied rules: 15 <= words <= 50 AND max confidence > 0.9
    expected = [3, 4, 5, 7, 8, 13, 14, 15, 16, 17, 21, 22, 23, 25, 26,
                31, 32, 33, 34, 35, 39, 40, 41, 43, 44, 49]
    got = [int(r.text.split()[0][1:]) for r in kept]
    exact_ids = got == expected
    exact_fields = all(
        r.aspect == i % 10 and r.rating == (((i % 5) + 1) - 1) / 4
        and r.source == "augmented"
        for i, r in zip(got, kept))
    audit_ok = (audit["total"] == 50 and audit["kept"] == 26
                and audit["rejected_length"] == 9
                and audit["rejected_confidence"] == 15)
    ok = exact_ids and exact_fields and audit_ok
    _report(10, "augmentation filter exactness", ok,
            f"kept {audit['kept']}/50 exactly as hand-computed; "
            f"ratings on the (class-1)/4 grid")


# -- 11: frozen pipeline outputs and split hygiene ---------------------------

def test_11_pipeline_goldens_and_split_disjointness(tmp_path):
    code = cli.main(["prepare-pairs", str(DATA / "stories_fixture.jsonl"),
                     "--out-dir", str(tmp_path), "--min-words", "10",
                     "--max-words", "100", "--ratios", "0.5,0.25,0.25",
                     "--seed", "7"])
    files = ("stories.jsonl", "train_pairs.jsonl", "val_pairs.jsonl",
             "test_pairs.jsonl", "stats.json")
    drift = [f for f in files
             if (tmp_path / f).read_bytes() != (GOLDEN / f).read_bytes()]

    bad_splits = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        pairs = []
        for p in range(int(rng.integers(3, 40))):
            for k in range(int(rng.integers(1, 4))):
                pairs.append(RankedPair(prompt_id=f"p{p}", high_id=f"p{p}h{k}",
                                        low_id=f"p{p}l{k}"))
        splits = split_by_prompt(pairs, seed=trial)
        prompts = {name: {q.prompt_id for q in split}
                   for name, split in splits.items()}
        disjoint = (not prompts["train"] & prompts["val"]
                    and not prompts["train"] & prompts["test"]
                    and not prompts["val"] & prompts["test"])
        complete = sorted(splits["train"] + splits["val"] + splits["test"],
                          key=lambda q: (q.prompt_id, q.high_id, q.low_id)) \
            == sorted(pairs, key=lambda q: (q.prompt_id, q.high_id, q.low_id))
        if not (disjoint and complete):
            bad_splits += 1
    ok = code == 0 and not drift and bad_splits == 0
    _report(11, "pipeline goldens and split disjointness", ok,
            f"golden files byte-identical ({'none drifted' if not drift else drift}); "
            f"{100 - bad_splits}/100 random fixtures split cleanly")


# -- 12: decoder memorization and the uniform-perplexity anchor --------------

def test_12_comment_memorization_and_uniform_ppl():
    story = ("a quiet tale about a lighthouse keeper and the storm "
             "that tested her resolve")
    comments = memorization_comments()
    vocab = build_vocab([story] + comments, size=200, n_aspects=5)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=48, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, window=16, max_len=48,
                      n_aspects=5, dropout=0.0)
    model = Model(cfg, vocab, rng=rng_mod.stream(0, "memorize"))
    story_ids = tokenize(story, vocab, cfg.max_len)
    triples = []
    for k, text in enumerate(comments):
        body = [vocab.id_of(w) for w in text.split()]
        triples.append((k, np.asarray([vocab.bos_id] + body + [vocab.eos_id])))
    opt = AdamW(model.params)
    nll = float("inf")
    for _ in range(400):
        total, n_tok = None, 0
        for k, cids in triples:
            term = model.comment_nll([story_ids], [k], [cids], reduce="sum")
            total = term if total is None else total + term
            n_tok += len(cids) - 1
        loss = total / float(n_tok)
        ad.forward_backward(loss, model.params)
        opt.step(lr=3e-3)
        nll = float(loss.data)
        if nll < 0.05:
            break
    decoded = [vocab.decode(model.generate_comments([story_ids], [k],
                                                    max_new_tokens=20)[0])
               for k, _ in triples]
    exact = sum(got == want for got, want in zip(decoded, comments))

    # 16-token vocabulary and zeroed output weights force uniform logits
    small = Vocabulary([CLS, SEP, PAD, BOS, EOS, UNK, aspect_token(0),
                        aspect_token(1)] + [f"u{c}" for c in "abcdefgh"], 2)
    ucfg = ModelConfig(vocab_size=16, d_model=16, n_enc_layers=1,
                       n_dec_layers=1, n_heads=2, window=4, max_len=16,
                       n_aspects=2, dropout=0.0)
    uniform = Model(ucfg, small, rng=rng_mod.stream(0, "uniform"))
    uniform.params["w_out"].data[:] = 0.0
    sids = np.asarray([small.cls_id, small.id_of("ua"), small.id_of("ub")])
    items = [(sids, 0, np.asarray([small.bos_id, small.id_of("uc"),
                                   small.id_of("ud"), small.eos_id])),
             (sids, 1, np.asarray([small.bos_id, small.id_of("ue"),
                                   small.eos_id]))]
    ppl = corpus_perplexity(uniform, items)
    ok = nll < 0.05 and exact == 5 and abs(ppl - 16.0) <= 1e-6
    _report(12, "comment memorization and uniform perplexity", ok,
            f"per-token NLL {nll:.4f} (<0.05), {exact}/5 greedy-exact, "
            f"uniform ppl {ppl:.8f} (16 +- 1e-6)")


# -- 13: training is bit-reproducible through the command line ---------------

def test_13_training_determinism(tmp_path):
    stories = make_preference_corpus(n_prompts=16, seed=3)
    write_jsonl(tmp_path / "raw.jsonl", [s.to_record() for s in stories])
    comments = make_aspect_comments(stories, seed=3)
    write_jsonl(tmp_path / "comments.jsonl", [c.to_record() for c in comments])
    assert cli.main(["prepare-pairs", str(tmp_path / "raw.jsonl"),
                     "--out-dir", str(tmp_path / "prep"),
                     "--min-words", "20", "--max-words", "120"]) == 0
    from storyeval.aspects import AspectTaxonomy
    AspectTaxonomy.default().save(tmp_path / "taxonomy.json")
    cfg = {
        "seed": 0,
        "model": {"d_model": 24, "window": 8, "max_len": 96},
        "train": {"epochs": 3, "peak_lr": 1e-3, "batch_size": 8,
                  "use_aspects": True, "use_comments": True},
        "data": {"stories": str(tmp_path / "prep" / "stories.jsonl"),
                 "pairs_train": str(tmp_path / "prep" / "train_pairs.jsonl"),
                 "pairs_val": str(tmp_path / "prep" / "val_pairs.jsonl"),
                 "comments": str(tmp_path / "comments.jsonl"),
                 "taxonomy": str(tmp_path / "taxonomy.json"),
                 "vocab_size": 400},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    logs = []
    for name in ("run_a", "run_b"):
        assert cli.main(["train", "--config", str(tmp_path / "cfg.json"),
                         "--out-dir", str(tmp_path / name)]) == 0
        logs.append((tmp_path / name / "train_log.csv").read_bytes())
    ckpt_same = ((tmp_path / "run_a" / "model.ckpt").read_bytes()
                 == (tmp_path / "run_b" / "model.ckpt").read_bytes())
    ok = logs[0] == logs[1] and ckpt_same
    n_rows = logs[0].decode().count("\n") - 2
    _report(13, "same-seed training runs are identical", ok,
            f"two runs, {n_rows} logged steps: loss logs "
            f"{'byte-identical' if logs[0] == logs[1] else 'DIFFER'}, "
            f"checkpoints {'byte-identical' if ckpt_same else 'DIFFER'}")
