"""Aspect taxonomy discovery and comment annotation.

Reader comments are treated as little documents: LDA with collapsed
Gibbs sampling proposes topic clusters, UMass coherence picks the topic
count, and an operator names the topics (the shipped default taxonomy
has the ten aspects the method settled on).  Two compact ``Model``s,
whose aspect heads classify whole comments by aspect and by sentiment,
then filter unlabeled comments into (aspect, rating) annotations to
grow the training corpus.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng as rng_mod
from .corpus import STOPWORDS
from .errors import ContractViolation, DataError
from .jsonl import atomic_write, read_text
from .losses import confidence_loss
from .model import Model, ModelConfig, predict_aspects
from .optim import AdamW, LrSchedule, lr_at, steps_per_epoch
from .vocab import build_vocab, tokenize, words

DEFAULT_TAXONOMY = (
    ("opening/beginning", "structure"),
    ("middle/twist/flow/conflict", "structure"),
    ("ending", "structure"),
    ("character shaping", "writing style"),
    ("scene description", "writing style"),
    ("heartwarming/touching", "type"),
    ("sad/crying/tragedy", "type"),
    ("horror/scary", "type"),
    ("funny/hilarious/laugh", "type"),
    ("novelty/good idea/brilliant", "type"),
)


@dataclass
class AspectTaxonomy:
    """Ordered aspect names; the index order is what the heads learn."""

    names: list[str]
    groups: list[str]

    def __post_init__(self):
        if len(self.names) != len(self.groups):
            raise ContractViolation("names and groups must align")
        if len(set(self.names)) != len(self.names):
            raise ContractViolation("aspect names must be unique")
        if not self.names:
            raise ContractViolation("taxonomy cannot be empty")

    def __len__(self) -> int:
        return len(self.names)

    def save(self, path, meta: dict | None = None) -> None:
        entries = [{"index": i, "name": n, "group": g}
                   for i, (n, g) in enumerate(zip(self.names, self.groups))]
        payload = entries if meta is None else {"meta": meta, "aspects": entries}
        with atomic_write(path) as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "AspectTaxonomy":
        """Read a saved taxonomy; a malformed file is a ``DataError`` naming it."""
        try:
            entries = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not valid JSON: {exc}") from exc
        if isinstance(entries, dict):
            entries = entries.get("aspects")
        if not isinstance(entries, list) or not entries:
            raise DataError(f'{path}: expected a non-empty list of aspects or '
                            f'{{"aspects": [...]}}')
        for e in entries:
            if not (isinstance(e, dict) and isinstance(e.get("index"), int)
                    and isinstance(e.get("name"), str)):
                raise DataError(f"{path}: aspect entry {e!r} needs an int 'index' "
                                f"and a str 'name'")
        entries = sorted(entries, key=lambda e: e["index"])
        if [e["index"] for e in entries] != list(range(len(entries))):
            raise DataError(f"{path}: taxonomy indices must be 0..K-1 without gaps")
        names = [e["name"] for e in entries]
        if len(set(names)) != len(names):
            raise DataError(f"{path}: duplicate aspect names")
        return cls(names=names, groups=[e.get("group", "") for e in entries])

    @classmethod
    def default(cls) -> "AspectTaxonomy":
        return cls(names=[n for n, _ in DEFAULT_TAXONOMY],
                   groups=[g for _, g in DEFAULT_TAXONOMY])


@dataclass
class CommentRecord:
    story_id: str
    text: str
    aspect: int | None = None
    rating: float | None = None
    source: str = "crowd"

    def __post_init__(self):
        if self.source not in ("crowd", "augmented"):
            raise ContractViolation(f"unknown source '{self.source}'")
        if self.source == "crowd" and (self.aspect is None or self.rating is None):
            raise ContractViolation("crowd records need aspect and rating")
        if self.rating is not None and not 0.0 <= self.rating <= 1.0:
            raise ContractViolation(f"rating {self.rating} outside [0,1]")

    def to_record(self) -> dict:
        return {"story_id": self.story_id, "text": self.text,
                "aspect": self.aspect, "rating": self.rating,
                "source": self.source}

    @classmethod
    def from_record(cls, rec: dict) -> "CommentRecord":
        return cls(story_id=str(rec["story_id"]), text=str(rec["text"]),
                   aspect=rec.get("aspect"), rating=rec.get("rating"),
                   source=rec.get("source", "crowd"))


def rating_from_class(sentiment_class: int) -> float:
    """Affine map {1..5} -> {0, 0.25, 0.5, 0.75, 1}."""
    if not 1 <= sentiment_class <= 5:
        raise ContractViolation(f"sentiment class {sentiment_class} outside 1..5")
    return (sentiment_class - 1) / 4.0


def class_from_rating(rating: float) -> int:
    """Inverse of rating_from_class on its range."""
    cls = round(rating * 4.0) + 1
    if abs(rating_from_class(cls) - rating) > 1e-9:
        raise ContractViolation(f"rating {rating} is not on the 1..5 grid")
    return cls


# -- LDA ------------------------------------------------------------------

def prepare_comment_docs(texts, min_count: int = 1,
                         extra_stopwords=()) -> tuple[list[np.ndarray], list[str]]:
    """Tokenize comments into stopword-free id arrays plus the word list."""
    stop = STOPWORDS | set(extra_stopwords)
    tokenized = []
    counts: dict[str, int] = {}
    for text in texts:
        toks = [w for w in words(text) if w.isalpha() and w not in stop]
        tokenized.append(toks)
        for w in toks:
            counts[w] = counts.get(w, 0) + 1
    vocab = sorted(w for w, c in counts.items() if c >= min_count)
    index = {w: i for i, w in enumerate(vocab)}
    docs = []
    for toks in tokenized:
        ids = np.asarray([index[w] for w in toks if w in index], dtype=np.int64)
        if len(ids):
            docs.append(ids)
    return docs, vocab


def _gibbs_sweep(word_ids, doc_ids, z, n_tw, n_t, n_dt, alpha, beta, uniforms):
    """One collapsed-Gibbs pass over every token, updating the count lists in place.

    Ids, assignments, counts and uniforms are plain lists (``n_tw`` and
    ``n_dt`` nested): indexing Python lists is several times cheaper than
    indexing numpy scalars, and the float arithmetic is the same, in the
    same order.
    """
    n_topics = len(n_t)
    beta_v = beta * len(n_tw[0])
    topics = range(n_topics)
    cum = [0.0] * n_topics
    for i, w in enumerate(word_ids):
        row = n_dt[doc_ids[i]]
        t = z[i]
        n_tw[t][w] -= 1
        n_t[t] -= 1
        row[t] -= 1
        total = 0.0
        for k in topics:
            total += (row[k] + alpha) * (n_tw[k][w] + beta) / (n_t[k] + beta_v)
            cum[k] = total
        u = uniforms[i] * total
        k = 0
        while cum[k] < u:
            k += 1
        z[i] = k
        n_tw[k][w] += 1
        n_t[k] += 1
        row[k] += 1


@dataclass
class LdaModel:
    topic_word: np.ndarray
    doc_topic: np.ndarray
    alpha: float
    beta: float
    n_topics: int
    vocab: list[str]

    def topic_word_dist(self) -> np.ndarray:
        counts = self.topic_word + self.beta
        return counts / counts.sum(axis=1, keepdims=True)

    def top_words(self, n: int = 10) -> list[list[str]]:
        dist = self.topic_word_dist()
        out = []
        for t in range(self.n_topics):
            order = np.argsort(-dist[t], kind="stable")[:n]
            out.append([self.vocab[i] for i in order])
        return out


def lda_fit(docs: list[np.ndarray], vocab: list[str], n_topics: int,
            alpha: float | None = None, beta: float = 0.01,
            iterations: int = 500, seed: int = 0) -> LdaModel:
    """Collapsed Gibbs sampling over tokenized documents.

    Deterministic per seed: all randomness is drawn from a dedicated
    stream, one block of uniforms per sweep.  The sweeps run over plain
    lists; the counts come back as float64 arrays.
    """
    if not docs:
        raise ContractViolation("empty corpus")
    if n_topics < 1:
        raise ContractViolation("n_topics must be >= 1")
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
    state = [a.tolist() for a in (word_ids, doc_ids, z, n_tw, n_t, n_dt)]
    for _ in range(iterations):
        _gibbs_sweep(*state, float(alpha), float(beta), rng.random(total).tolist())
    n_tw, n_t, n_dt = (np.asarray(a, dtype=np.float64) for a in state[3:])
    assert int(n_t.sum()) == total, "token count must be conserved"
    return LdaModel(topic_word=n_tw, doc_topic=n_dt, alpha=alpha, beta=beta,
                    n_topics=n_topics, vocab=list(vocab))


def umass_coherence(model: LdaModel, docs: list[np.ndarray], top_n: int = 10) -> float:
    """Average UMass coherence over topics (higher is better).

    For a topic's top words, the binary (docs x top words) incidence gives
    the co-document counts as ``sub.T @ sub`` and the document frequencies
    as its diagonal.  Pairs whose earlier word is in no document are
    skipped.
    """
    word_ids = np.concatenate(docs)
    doc_ids = np.repeat(np.arange(len(docs)), [len(d) for d in docs])
    column = np.full(model.topic_word.shape[1], -1)
    dist = model.topic_word_dist()
    scores = []
    for t in range(model.n_topics):
        top = np.argsort(-dist[t], kind="stable")[:top_n]
        column[top] = np.arange(len(top))
        cols = column[word_ids]
        hit = cols >= 0
        sub = np.zeros((len(docs), len(top)))
        sub[doc_ids[hit], cols[hit]] = 1.0
        column[top] = -1
        co = sub.T @ sub
        i, j = np.tril_indices(len(top), -1)
        denom = np.diag(co)[j]
        keep = denom > 0
        scores.append(np.log((co[i, j][keep] + 1.0) / denom[keep]).sum())
    return float(np.mean(scores))


def select_num_topics(docs: list[np.ndarray], vocab: list[str], candidates,
                      seed: int = 0, iterations: int = 200,
                      top_n: int = 10) -> LdaModel:
    """The fitted model of the candidate topic count with the best mean
    UMass coherence.

    Ties break toward the smaller count; a single candidate is fitted
    without scoring.  Each fit is ``lda_fit`` with ``seed`` and
    ``iterations``, so the winner needs no refit.
    """
    cands = sorted(set(int(c) for c in candidates))
    if not cands:
        raise ContractViolation("no candidate topic counts")
    if len(cands) == 1:
        return lda_fit(docs, vocab, cands[0], iterations=iterations, seed=seed)
    best, best_score = None, -np.inf
    for t in cands:
        model = lda_fit(docs, vocab, t, iterations=iterations, seed=seed)
        score = umass_coherence(model, docs, top_n=top_n)
        if score > best_score:
            best, best_score = model, score
    return best


# -- comment filters --------------------------------------------------------

FILTER_BATCH = 16      # comments per step of a filter's training


def _train_classifier(texts: list[str], labels: list[int], n_classes: int, epochs: int,
                      lr: float, seed: int) -> Model:
    """A compact ``Model`` whose aspect head is an ``n_classes``-way text
    classifier, trained with the joint trainer's confidence loss on one-hot
    targets in batches of ``FILTER_BATCH``; the decoder and the other heads
    stay untouched."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(texts) != len(labels):
        raise ContractViolation("texts and labels differ in length")
    bad = sorted(set(labels[(labels < 0) | (labels >= n_classes)].tolist()))
    if bad:
        raise ContractViolation(f"labels {bad} outside [0, {n_classes})")
    counts = np.bincount(labels, minlength=n_classes)
    if np.any(counts < 1):
        raise DataError(f"need >= 1 examples per class, got {counts.tolist()}")
    vocab = build_vocab(texts, size=2000, n_aspects=n_classes)
    config = ModelConfig(vocab_size=len(vocab), d_model=48, n_enc_layers=1,
                         n_dec_layers=1, n_heads=2, window=16, max_len=64,
                         n_aspects=n_classes, dropout=0.0)
    model = Model(config, vocab, rng=rng_mod.stream(seed, "classifier_init"))
    trainable = {n: p for n, p in model.params.items()
                 if n == "w_ac" or n.startswith("enc") or n in ("tok_emb", "pos_emb")}
    opt = AdamW(trainable)
    seqs = [tokenize(t, vocab, config.max_len) for t in texts]
    one_hot = np.eye(n_classes)[labels]
    order_rng = rng_mod.stream(seed, "classifier_shuffle")
    n = len(seqs)
    total_steps = epochs * steps_per_epoch(n, FILTER_BATCH)
    sched = LrSchedule(peak_lr=lr, warmup_steps=0, total_steps=total_steps)
    step = 0
    for _ in range(epochs):
        order = order_rng.permutation(n)
        for start in range(0, n, FILTER_BATCH):
            chunk = order[start: start + FILTER_BATCH]
            v_s, _, _ = model.encode_stories([seqs[i] for i in chunk], states=False)
            loss = confidence_loss(predict_aspects(model.params, v_s)[0], one_hot[chunk])
            ad.forward_backward(loss, trainable)
            opt.step(lr=lr_at(sched, step))
            step += 1
    return model


def train_aspect_classifier(records: list[CommentRecord], n_aspects: int = 10,
                            epochs: int = 30, lr: float = 3e-3, seed: int = 0) -> Model:
    """K-way aspect classifier over crowd-labeled comments."""
    crowd = [r for r in records if r.source == "crowd"]
    return _train_classifier([r.text for r in crowd], [r.aspect for r in crowd],
                             n_aspects, epochs, lr, seed)


def train_sentiment_scorer(records: list[CommentRecord], epochs: int = 30,
                           lr: float = 3e-3, seed: int = 0) -> Model:
    """5-way sentiment scorer; head class c - 1 stands for the rating
    ``rating_from_class(c)``."""
    crowd = [r for r in records if r.source == "crowd"]
    return _train_classifier([r.text for r in crowd],
                             [class_from_rating(r.rating) - 1 for r in crowd],
                             5, epochs, lr, seed)


# -- augmentation -----------------------------------------------------------

def augment_comments(raw_comments: list[dict], classifier: Model, scorer: Model,
                     confidence: float = 0.9, min_words: int = 15,
                     max_words: int = 50,
                     per_aspect_cap: int | None = None,
                     ) -> tuple[list[CommentRecord], dict]:
    """Filter unlabeled comments into augmented (aspect, rating) records.

    Keeps a comment iff its word count lies in [min_words, max_words],
    its best aspect probability strictly exceeds ``confidence`` and its
    aspect is under ``per_aspect_cap``, applied in input order.  Class
    probabilities are the filters' aspect heads: one ``Model.infer`` call
    scores every comment of the right length, one more the kept ones.
    The audit dict counts every rejection by reason.
    """
    audit = {"total": len(raw_comments), "kept": 0, "rejected_length": 0,
             "rejected_confidence": 0, "rejected_cap": 0}
    pool = [rec for rec in raw_comments
            if min_words <= len(rec["text"].split()) <= max_words]
    audit["rejected_length"] = len(raw_comments) - len(pool)

    def class_probs(model: Model, recs) -> np.ndarray:
        seqs = [tokenize(r["text"], model.vocab, model.config.max_len) for r in recs]
        return model.infer(seqs)[1]

    kept, per_aspect = [], {}
    for rec, probs in zip(pool, class_probs(classifier, pool)):
        aspect = int(np.argmax(probs))
        if float(probs[aspect]) <= confidence:
            audit["rejected_confidence"] += 1
        elif per_aspect_cap is not None and per_aspect.get(aspect, 0) >= per_aspect_cap:
            audit["rejected_cap"] += 1
        else:
            kept.append((rec, aspect))
            per_aspect[aspect] = per_aspect.get(aspect, 0) + 1
    audit["kept"] = len(kept)
    sentiments = np.argmax(class_probs(scorer, [rec for rec, _ in kept]), axis=-1) + 1
    return [CommentRecord(story_id=str(rec.get("story_id", "")), text=rec["text"],
                          aspect=aspect, rating=rating_from_class(int(c)),
                          source="augmented")
            for (rec, aspect), c in zip(kept, sentiments)], audit
