"""Comment supervision end to end: augment labels, train, generate.

Crowd-labeled comments are scarce, so the pipeline stretches them in
two ways.  Two compact ``Model``s, trained through their aspect heads to
classify a comment's aspect and its sentiment, label raw unlabeled
comments (keeping only confident, reasonably sized ones; ``Model.infer``
scores the whole pool in one call per filter), and a
cross-attention decoder learns to write aspect-conditioned comments,
which doubles as a perplexity probe of how well the evaluator reads a
story.
"""

import numpy as np

from storyeval import autodiff as ad
from storyeval.aspects import (
    CommentRecord,
    augment_comments,
    train_aspect_classifier,
    train_sentiment_scorer,
)
from storyeval.corpus import build_pairs
from storyeval.metrics import corpus_perplexity
from storyeval.model import Model, ModelConfig
from storyeval.optim import AdamW
from storyeval.synthetic import (
    make_aspect_comments,
    make_preference_corpus,
    memorization_comments,
)
from storyeval.training import TrainConfig, TrainData, Trainer
from storyeval.vocab import build_vocab, tokenize
from storyeval import rng as rng_mod


def neutral_records() -> list[CommentRecord]:
    # the synthetic crowd never hands out a middling score, but the
    # 5-way scorer needs at least one example of every class
    texts = ["the premise felt serviceable and unremarkable overall",
             "the voice felt steady and ordinary overall",
             "the finale felt adequate and expected overall",
             "the imagery felt routine and acceptable overall"]
    return [CommentRecord(story_id="", text=t, aspect=0, rating=0.5,
                          source="crowd") for t in texts]


def augmentation_demo():
    stories = make_preference_corpus(n_prompts=40, seed=2)
    crowd = make_aspect_comments(stories, seed=2) + neutral_records()
    print(f"{len(crowd)} crowd-labeled comments")

    classifier = train_aspect_classifier(crowd, n_aspects=10, seed=0)
    scorer = train_sentiment_scorer(crowd, seed=0)

    # unlabeled pool: held-out synthetic comments plus two that should
    # trip the length filter
    extra = make_aspect_comments(make_preference_corpus(12, seed=9), seed=9)
    raw = [{"story_id": c.story_id, "text": c.text} for c in extra]
    raw.append({"story_id": "x", "text": "loved it"})
    raw.append({"story_id": "y", "text": "the " + "very " * 40 + "long one"})
    augmented, audit = augment_comments(raw, classifier, scorer,
                                        confidence=0.9, min_words=5,
                                        max_words=30)
    print(f"augmentation audit: {audit}")
    sample = augmented[0]
    print(f"  e.g. aspect {sample.aspect}, rating {sample.rating:.2f}: "
          f"'{sample.text}'")


def joint_training_demo():
    # through the trainer, the comment MLE term rides along with the
    # ranking objective; perplexity on the very comments it samples
    # from is the progress gauge
    stories = make_preference_corpus(n_prompts=40, seed=2)
    by_id = {s.id: s for s in stories}
    pairs = build_pairs(stories)
    comments: dict[str, list[CommentRecord]] = {}
    for rec in make_aspect_comments(stories, seed=2):
        comments.setdefault(rec.story_id, []).append(rec)

    vocab = build_vocab([s.text for s in stories]
                        + [r.text for v in comments.values() for r in v],
                        size=400, n_aspects=10)
    config = ModelConfig(vocab_size=len(vocab), d_model=32, n_enc_layers=1,
                         n_dec_layers=1, n_heads=2, window=16, max_len=64,
                         n_aspects=10, dropout=0.0)
    model = Model(config, vocab, rng=rng_mod.stream(1, "init"))

    def ppl_items(n: int = 8):
        items = []
        for sid, recs in sorted(comments.items())[:n]:
            rec = recs[0]
            story_ids = tokenize(by_id[sid].text, vocab, config.max_len)
            body = [vocab.id_of(w) for w in rec.text.split()][:12]
            comment_ids = np.asarray([vocab.bos_id] + body + [vocab.eos_id])
            items.append((story_ids, rec.aspect, comment_ids))
        return items

    before = corpus_perplexity(model, ppl_items())
    data = TrainData(stories=by_id, train_pairs=pairs, val_pairs=[],
                     comments=comments)
    cfg = TrainConfig(batch_size=8, peak_lr=1e-3, epochs=30, seed=0,
                      use_aspects=True, use_comments=True, comment_max_len=12)
    Trainer(model, data, cfg).train()
    after = corpus_perplexity(model, ppl_items())
    print(f"\njoint training, comment perplexity: "
          f"{before:.1f} untrained -> {after:.1f} trained")


def generation_demo():
    # the decoder alone, on one story with one comment per aspect:
    # a few dozen steps make greedy decoding reproduce each comment
    # from its aspect token, the conditioning path in miniature
    story = ("the keeper of the northern light counted ships until the "
             "sea went quiet and the lamp burned alone")
    comments = memorization_comments()
    vocab = build_vocab([story] + comments, size=200, n_aspects=5)
    config = ModelConfig(vocab_size=len(vocab), d_model=32, n_enc_layers=1,
                         n_dec_layers=1, n_heads=2, window=16, max_len=48,
                         n_aspects=5, dropout=0.0)
    model = Model(config, vocab, rng=rng_mod.stream(3, "init"))
    story_ids = tokenize(story, vocab, config.max_len)
    triples = []
    for k, text in enumerate(comments):
        body = [vocab.id_of(w) for w in text.split()]
        triples.append((story_ids, k,
                        np.asarray([vocab.bos_id] + body + [vocab.eos_id])))

    opt = AdamW(model.params)
    step = 0
    for step in range(1, 401):
        total, n_tok = None, 0
        for sids, k, cids in triples:
            term = model.comment_nll([sids], [k], [cids], reduce="sum")
            total = term if total is None else total + term
            n_tok += len(cids) - 1
        loss = total / float(n_tok)
        ad.forward_backward(loss, model.params)
        opt.step(lr=3e-3)
        if float(loss.data) < 0.05:
            break
    print(f"\ndecoder fine-tune: per-token NLL {float(loss.data):.4f} "
          f"after {step} steps, perplexity {corpus_perplexity(model, triples):.2f}")
    for (sids, k, _), want in zip(triples, comments):
        got = vocab.decode(model.generate_comments([sids], [k], max_new_tokens=20)[0])
        mark = "==" if got == want else "!="
        print(f"  aspect {k}: '{got}'  {mark} crowd")


if __name__ == "__main__":
    augmentation_demo()
    joint_training_demo()
    generation_demo()
