"""Aspect taxonomy discovery and comment annotation.

Reader comments are treated as little documents: LDA with collapsed
Gibbs sampling proposes topic clusters, UMass coherence picks the topic
count, and an operator names the topics (the shipped default taxonomy
has the ten aspects the method settled on).  A compact encoder
classifier then filters unlabeled comments into (aspect, rating)
annotations to grow the training corpus.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from . import autodiff as ad
from . import rng as rng_mod
from .autodiff import Tensor
from .corpus import STOPWORDS
from .errors import ContractViolation, DataError
from .jsonl import atomic_write
from .model import ModelConfig, encode, init_params
from .optim import AdamW, LrSchedule, lr_at, steps_per_epoch
from .vocab import Vocabulary, build_vocab, pad_batch, tokenize, words

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
            entries = json.loads(Path(path).read_text(encoding="utf-8"))
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

    For a topic's top words, the binary doc x word incidence gives the
    co-document counts as ``inc.T @ inc`` and the document frequencies
    as its diagonal.  Pairs whose earlier word is in no document are
    skipped.
    """
    doc_ids = np.repeat(np.arange(len(docs)), [len(d) for d in docs])
    inc = sparse.csc_matrix((np.ones(len(doc_ids)), (doc_ids, np.concatenate(docs))),
                            shape=(len(docs), model.topic_word.shape[1]))
    inc.data[:] = 1.0  # construction summed repeated words
    dist = model.topic_word_dist()
    scores = []
    for t in range(model.n_topics):
        top = np.argsort(-dist[t], kind="stable")[:top_n]
        sub = inc[:, top]
        co = (sub.T @ sub).toarray()
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


# -- encoder classifiers ----------------------------------------------------

@dataclass
class TextClassifier:
    """Compact encoder plus a softmax class head over whole comments."""

    params: dict[str, Tensor]
    config: ModelConfig
    vocab: Vocabulary
    n_classes: int

    def _encode(self, texts: list[str]) -> Tensor:
        seqs = [tokenize(t, self.vocab, self.config.max_len) for t in texts]
        ids, lengths = pad_batch(seqs, self.vocab.pad_id)
        v_s, _ = encode(self.params, self.config, ids, lengths)
        return v_s

    def predict_proba_batch(self, texts: list[str]) -> np.ndarray:
        with ad.no_grad():
            logits = ad.linear(self._encode(texts), self.params["w_cls"])
            return ad.softmax(logits, axis=-1).data

    def predict_proba(self, text: str) -> np.ndarray:
        return self.predict_proba_batch([text])[0]

    def predict_batch(self, texts: list[str]) -> np.ndarray:
        return np.argmax(self.predict_proba_batch(texts), axis=-1)

    def predict_class(self, text: str) -> int:
        """1-based class for sentiment-style heads."""
        return int(self.predict_batch([text])[0]) + 1

    def accuracy(self, texts: list[str], labels) -> float:
        pred = self.predict_batch(texts)
        return float(np.mean(pred == np.asarray(labels)))


def _train_classifier(texts: list[str], labels: np.ndarray, n_classes: int,
                      vocab: Vocabulary | None, epochs: int, lr: float,
                      batch_size: int, seed: int) -> TextClassifier:
    if len(texts) != len(labels):
        raise ContractViolation("texts and labels differ in length")
    present = set(int(l) for l in labels)
    missing = sorted(set(range(n_classes)) - present)
    if missing:
        raise ContractViolation(f"classes without examples: {missing}")
    if vocab is None:
        vocab = build_vocab(texts, size=2000, n_aspects=0)
    config = ModelConfig(vocab_size=len(vocab), d_model=48, n_enc_layers=1,
                         n_dec_layers=1, n_heads=2, window=16, max_len=64,
                         n_aspects=max(1, n_classes), dropout=0.0)
    init_rng = rng_mod.stream(seed, "classifier_init")
    params = init_params(config, init_rng)
    params["w_cls"] = Tensor(
        init_rng.normal(0.0, 0.02, (config.d_model, n_classes)).astype(np.float32),
        requires_grad=True)
    # the decoder and scoring heads stay untouched; train only what the
    # classifier forward pass reaches
    trainable = {n: p for n, p in params.items()
                 if n == "w_cls" or n.startswith("enc") or n in ("tok_emb", "pos_emb")}
    opt = AdamW(trainable)
    seqs = [tokenize(t, vocab, config.max_len) for t in texts]
    labels = np.asarray(labels, dtype=np.int64)
    order_rng = rng_mod.stream(seed, "classifier_shuffle")
    n = len(seqs)
    total_steps = epochs * steps_per_epoch(n, batch_size)
    sched = LrSchedule(peak_lr=lr, warmup_steps=0, total_steps=total_steps)
    step = 0
    for _ in range(epochs):
        order = order_rng.permutation(n)
        for start in range(0, n, batch_size):
            chunk = order[start: start + batch_size]
            ids, lengths = pad_batch([seqs[i] for i in chunk], vocab.pad_id)
            v_s, _ = encode(params, config, ids, lengths)
            logits = ad.linear(v_s, params["w_cls"])
            logp = ad.log_softmax(logits, axis=-1)
            nll = -ad.gather_last(logp, labels[chunk]).mean()
            ad.zero_grads(trainable)
            ad.forward_backward(nll, trainable)
            opt.step(lr=lr_at(sched, step))
            step += 1
    return TextClassifier(params=params, config=config, vocab=vocab,
                          n_classes=n_classes)


def train_aspect_classifier(records: list[CommentRecord], n_aspects: int = 10,
                            vocab: Vocabulary | None = None, epochs: int = 30,
                            lr: float = 3e-3, batch_size: int = 16,
                            seed: int = 0, min_per_class: int = 1) -> TextClassifier:
    """K-way aspect classifier over crowd-labeled comments."""
    crowd = [r for r in records if r.source == "crowd"]
    counts = np.zeros(n_aspects, dtype=np.int64)
    for r in crowd:
        counts[r.aspect] += 1
    if np.any(counts < min_per_class):
        raise ContractViolation(
            f"need >= {min_per_class} comments per aspect, got {counts.tolist()}")
    texts = [r.text for r in crowd]
    labels = np.asarray([r.aspect for r in crowd], dtype=np.int64)
    return _train_classifier(texts, labels, n_aspects, vocab, epochs, lr,
                             batch_size, seed)


def train_sentiment_scorer(records: list[CommentRecord],
                           vocab: Vocabulary | None = None, epochs: int = 30,
                           lr: float = 3e-3, batch_size: int = 16,
                           seed: int = 0, min_per_class: int = 1) -> TextClassifier:
    """5-way sentiment scorer; labels derive from the 0-1 ratings."""
    crowd = [r for r in records if r.source == "crowd"]
    texts = [r.text for r in crowd]
    labels = np.asarray([class_from_rating(r.rating) - 1 for r in crowd],
                        dtype=np.int64)
    if len(set(labels.tolist())) < 5 and min_per_class > 0:
        missing = sorted(set(range(5)) - set(labels.tolist()))
        raise ContractViolation(f"sentiment classes without examples: {missing}")
    return _train_classifier(texts, labels, 5, vocab, epochs, lr, batch_size, seed)


# -- augmentation -----------------------------------------------------------

def augment_comments(raw_comments: list[dict], classifier, scorer,
                     confidence: float = 0.9, min_words: int = 15,
                     max_words: int = 50,
                     per_aspect_cap: int | None = None,
                     ) -> tuple[list[CommentRecord], dict]:
    """Filter unlabeled comments into augmented (aspect, rating) records.

    Keeps a comment iff its best aspect probability strictly exceeds
    ``confidence`` and its word count lies in [min_words, max_words].
    The audit dict counts every rejection by reason.
    """
    kept: list[CommentRecord] = []
    audit = {"total": len(raw_comments), "kept": 0, "rejected_length": 0,
             "rejected_confidence": 0, "rejected_cap": 0}
    per_aspect: dict[int, int] = {}
    for rec in raw_comments:
        text = rec["text"]
        wc = len(text.split())
        if wc < min_words or wc > max_words:
            audit["rejected_length"] += 1
            continue
        probs = np.asarray(classifier.predict_proba(text), dtype=np.float64)
        if float(probs.max()) <= confidence:
            audit["rejected_confidence"] += 1
            continue
        aspect = int(np.argmax(probs))
        if per_aspect_cap is not None and per_aspect.get(aspect, 0) >= per_aspect_cap:
            audit["rejected_cap"] += 1
            continue
        sentiment = int(scorer.predict_class(text))
        kept.append(CommentRecord(story_id=str(rec.get("story_id", "")),
                                  text=text, aspect=aspect,
                                  rating=rating_from_class(sentiment),
                                  source="augmented"))
        per_aspect[aspect] = per_aspect.get(aspect, 0) + 1
        audit["kept"] += 1
    return kept, audit
