import json

import numpy as np
import pytest

from storyeval import aspects
from storyeval import rng as rng_mod
from storyeval.aspects import (
    AspectTaxonomy,
    CommentRecord,
    LdaModel,
    augment_comments,
    class_from_rating,
    lda_fit,
    prepare_comment_docs,
    rating_from_class,
    select_num_topics,
    train_aspect_classifier,
    train_sentiment_scorer,
    umass_coherence,
)
from storyeval.errors import ContractViolation, DataError
from storyeval.model import Model
from storyeval.vocab import tokenize

from helpers import (
    TableModel,
    encode_flags,
    reference_augment,
    reference_lda_fit,
    reference_umass_coherence,
)


class TestTaxonomy:
    def test_default_has_ten_aspects(self):
        tax = AspectTaxonomy.default()
        assert len(tax) == 10
        assert tax.names[0] == "opening/beginning"
        assert tax.names[2] == "ending"
        assert tax.groups.count("structure") == 3
        assert tax.groups.count("writing style") == 2
        assert tax.groups.count("type") == 5

    def test_roundtrip(self, tmp_path):
        tax = AspectTaxonomy.default()
        path = tmp_path / "aspects.json"
        tax.save(path)
        loaded = AspectTaxonomy.load(path)
        assert loaded.names == tax.names
        assert loaded.groups == tax.groups

    def test_load_rejects_gappy_indices(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([
            {"index": 0, "name": "a", "group": "g"},
            {"index": 2, "name": "b", "group": "g"},
        ]))
        with pytest.raises(DataError):
            AspectTaxonomy.load(path)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ContractViolation):
            AspectTaxonomy(names=["a", "a"], groups=["g", "g"])

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            AspectTaxonomy(names=[], groups=[])


class TestCommentRecord:
    def test_crowd_requires_labels(self):
        with pytest.raises(ContractViolation):
            CommentRecord(story_id="s", text="hello", source="crowd")

    def test_rating_bounds(self):
        with pytest.raises(ContractViolation):
            CommentRecord(story_id="s", text="x", aspect=1, rating=1.5)

    def test_roundtrip(self):
        rec = CommentRecord(story_id="s1", text="great ending", aspect=2,
                            rating=0.75, source="augmented")
        assert CommentRecord.from_record(rec.to_record()) == rec

    def test_unknown_source(self):
        with pytest.raises(ContractViolation):
            CommentRecord(story_id="s", text="x", aspect=0, rating=0.5,
                          source="oracle")


class TestRatingGrid:
    def test_class_to_rating_values(self):
        assert [rating_from_class(c) for c in range(1, 6)] == \
            [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_inverse_on_grid(self):
        for c in range(1, 6):
            assert class_from_rating(rating_from_class(c)) == c

    def test_off_grid_rejected(self):
        with pytest.raises(ContractViolation):
            class_from_rating(0.3)

    def test_class_out_of_range(self):
        with pytest.raises(ContractViolation):
            rating_from_class(0)


class TestPrepareDocs:
    def test_stopwords_dropped(self):
        docs, vocab = prepare_comment_docs(["the ending was brilliant"])
        assert "the" not in vocab
        assert "was" not in vocab
        assert set(vocab) == {"ending", "brilliant"}
        assert len(docs) == 1 and len(docs[0]) == 2

    def test_min_count_filter(self):
        texts = ["ending ending brilliant", "ending twist"]
        docs, vocab = prepare_comment_docs(texts, min_count=2)
        assert vocab == ["ending"]

    def test_punctuation_dropped(self):
        docs, vocab = prepare_comment_docs(["wow!! ending... ending"])
        assert vocab == ["ending", "wow"]

    def test_all_stopword_doc_skipped(self):
        docs, vocab = prepare_comment_docs(["the a of", "ending twist"])
        assert len(docs) == 1


def _planted_corpus(n_topics=2, docs_per=40, doc_len=20, words_per=8, seed=0):
    rng = rng_mod.stream(seed, "planted")
    groups = [[f"w{chr(97 + t)}x{chr(97 + i)}" for i in range(words_per)]
              for t in range(n_topics)]
    texts = []
    for t in range(n_topics):
        for _ in range(docs_per):
            toks = rng.choice(groups[t], size=doc_len)
            texts.append(" ".join(toks))
    return texts, groups


class TestLda:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractViolation):
            lda_fit([], [], n_topics=2)

    def test_single_topic_is_unigram(self):
        texts = ["ending twist ending", "brilliant ending scene"]
        docs, vocab = prepare_comment_docs(texts)
        model = lda_fit(docs, vocab, n_topics=1, iterations=3, seed=0)
        counts = np.zeros(len(vocab))
        for d in docs:
            np.add.at(counts, d, 1.0)
        expected = (counts + model.beta) / (counts.sum() + model.beta * len(vocab))
        np.testing.assert_allclose(model.topic_word_dist()[0], expected, rtol=0,
                                   atol=1e-15)

    def test_deterministic_per_seed(self):
        texts, _ = _planted_corpus(docs_per=10, doc_len=10)
        docs, vocab = prepare_comment_docs(texts)
        a = lda_fit(docs, vocab, n_topics=3, iterations=20, seed=7)
        b = lda_fit(docs, vocab, n_topics=3, iterations=20, seed=7)
        np.testing.assert_array_equal(a.topic_word, b.topic_word)
        np.testing.assert_array_equal(a.doc_topic, b.doc_topic)

    def test_seed_changes_chain(self):
        texts, _ = _planted_corpus(docs_per=10, doc_len=10)
        docs, vocab = prepare_comment_docs(texts)
        a = lda_fit(docs, vocab, n_topics=3, iterations=20, seed=7)
        b = lda_fit(docs, vocab, n_topics=3, iterations=20, seed=8)
        assert not np.array_equal(a.topic_word, b.topic_word)

    def test_counts_conserved(self):
        texts, _ = _planted_corpus(docs_per=6, doc_len=12)
        docs, vocab = prepare_comment_docs(texts)
        total = sum(len(d) for d in docs)
        model = lda_fit(docs, vocab, n_topics=4, iterations=10, seed=1)
        assert model.topic_word.sum() == total
        lengths = np.asarray([len(d) for d in docs], dtype=float)
        np.testing.assert_array_equal(model.doc_topic.sum(axis=1), lengths)

    def test_planted_two_topics_recovered(self):
        texts, groups = _planted_corpus(n_topics=2, docs_per=40, doc_len=20)
        docs, vocab = prepare_comment_docs(texts)
        model = lda_fit(docs, vocab, n_topics=2, iterations=150, seed=0)
        group_sets = [set(g) for g in groups]
        purities = []
        for top in model.top_words(8):
            fractions = [len(set(top) & g) / len(top) for g in group_sets]
            purities.append(max(fractions))
        assert np.mean(purities) >= 0.95

    def test_topic_word_dist_rows_normalized(self):
        texts, _ = _planted_corpus(docs_per=5, doc_len=8)
        docs, vocab = prepare_comment_docs(texts)
        model = lda_fit(docs, vocab, n_topics=3, iterations=5, seed=2)
        np.testing.assert_allclose(model.topic_word_dist().sum(axis=1), 1.0,
                                   atol=1e-12)


class _TiedUniforms:
    """A stream whose every uniform is 0.5: a lone token in a 2-topic
    model then sees two equal weights, and u lands exactly on cum[0]."""

    def __init__(self, gen):
        self.gen = gen

    def integers(self, *args, **kwargs):
        return self.gen.integers(*args, **kwargs)

    def random(self, n):
        return np.full(n, 0.5)


def _oracle_corpus(kind):
    if kind == "ties":
        return [np.array([0])], ["a", "b"]
    texts, _ = _planted_corpus(n_topics=3, docs_per=6, doc_len=10)
    docs, vocab = prepare_comment_docs(texts)
    if kind == "one_token_doc":
        docs = docs + [np.array([len(vocab) - 1])]
    elif kind == "unused_words":
        vocab = vocab + ["zzunused", "zzunusedtoo"]
    return docs, vocab


class TestLdaOracle:
    """The list-based sweep walks the chain of the array kernel it replaced."""

    @pytest.mark.parametrize("kind,n_topics,seed", [
        ("planted", 1, 0), ("planted", 3, 0), ("planted", 3, 4),
        ("planted", 15, 0), ("planted", 15, 4), ("one_token_doc", 3, 1),
        ("unused_words", 3, 2), ("ties", 2, 0),
    ])
    def test_chain_equals_array_kernel(self, monkeypatch, kind, n_topics, seed):
        if kind == "ties":
            stream = rng_mod.stream
            monkeypatch.setattr(rng_mod, "stream",
                                lambda *a: _TiedUniforms(stream(*a)))
        docs, vocab = _oracle_corpus(kind)
        got = lda_fit(docs, vocab, n_topics, iterations=12, seed=seed)
        want = reference_lda_fit(docs, vocab, n_topics, iterations=12, seed=seed)
        assert np.array_equal(got.topic_word, want.topic_word)
        assert np.array_equal(got.doc_topic, want.doc_topic)


class TestUmass:
    def test_hand_computed_pair_score(self):
        # docs as id-arrays over vocab [a, b, c]; topic top-2 = [a, b]
        docs = [np.array([0, 1]), np.array([0, 1]), np.array([0, 2]),
                np.array([1, 2])]
        model = LdaModel(topic_word=np.array([[10.0, 5.0, 0.0]]),
                         doc_topic=np.zeros((4, 1)), alpha=1.0, beta=0.01,
                         n_topics=1, vocab=["a", "b", "c"])
        # D(a)=3, D(b)=3, D(a,b)=2; score = log((2+1)/3) = 0
        got = umass_coherence(model, docs, top_n=2)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_rare_cooccurrence_scores_lower(self):
        docs = [np.array([0, 1])] * 4 + [np.array([2]), np.array([3])] * 4
        coherent = LdaModel(topic_word=np.array([[5.0, 4.0, 0.0, 0.0]]),
                            doc_topic=np.zeros((12, 1)), alpha=1.0, beta=0.01,
                            n_topics=1, vocab=list("abcd"))
        incoherent = LdaModel(topic_word=np.array([[0.0, 0.0, 5.0, 4.0]]),
                              doc_topic=np.zeros((12, 1)), alpha=1.0, beta=0.01,
                              n_topics=1, vocab=list("abcd"))
        assert umass_coherence(coherent, docs, top_n=2) > \
            umass_coherence(incoherent, docs, top_n=2)

    def test_incidence_matches_pair_scan(self):
        # the top word of the hand-built topic is in no document
        cases = [(LdaModel(topic_word=np.array([[9.0, 4.0, 2.0, 0.0]]),
                           doc_topic=np.zeros((3, 1)), alpha=1.0, beta=0.01,
                           n_topics=1, vocab=list("abcd")),
                  [np.array([1, 2]), np.array([2, 2, 3]), np.array([1])], 3)]
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n_words, n_docs, n_topics = (int(rng.integers(lo, hi))
                                         for lo, hi in ((3, 30), (1, 25), (1, 6)))
            docs = [rng.integers(0, n_words, size=int(rng.integers(1, 12)))
                    for _ in range(n_docs)]
            model = LdaModel(topic_word=rng.integers(0, 6, size=(n_topics, n_words)) * 1.0,
                             doc_topic=np.zeros((n_docs, n_topics)), alpha=1.0,
                             beta=0.01, n_topics=n_topics,
                             vocab=[f"w{i}" for i in range(n_words)])
            cases.append((model, docs, int(rng.integers(2, 12))))
        for model, docs, top_n in cases:
            want = reference_umass_coherence(model, docs, top_n=top_n)
            assert abs(umass_coherence(model, docs, top_n=top_n) - want) <= 1e-12

    def test_select_prefers_planted_count(self):
        texts, _ = _planted_corpus(n_topics=3, docs_per=30, doc_len=15,
                                   words_per=6)
        docs, vocab = prepare_comment_docs(texts)
        best = select_num_topics(docs, vocab, [2, 3, 6], seed=0,
                                 iterations=120, top_n=6)
        assert best.n_topics == 3
        # the winner is the candidate's own fit: the same chain as lda_fit
        want = lda_fit(docs, vocab, 3, iterations=120, seed=0)
        assert np.array_equal(best.topic_word, want.topic_word)
        assert np.array_equal(best.doc_topic, want.doc_topic)

    def test_single_candidate_short_circuits(self, monkeypatch):
        docs = [np.array([0, 1]), np.array([1, 2])]
        scored = []
        monkeypatch.setattr(aspects, "umass_coherence",
                            lambda *a, **k: scored.append(1) or 0.0)
        model = select_num_topics(docs, ["a", "b", "c"], [7], iterations=3)
        assert model.n_topics == 7 and scored == []

    def test_no_candidates_rejected(self):
        with pytest.raises(ContractViolation):
            select_num_topics([np.array([0])], ["a"], [])


def _aspect_fixture():
    # two lexically separable aspects
    enders = ["the ending twist was perfect and surprising",
              "what an ending, the final twist landed well",
              "loved the ending, the twist surprised me completely",
              "that ending twist caught me off guard entirely",
              "the final ending felt earned and the twist hit",
              "strong ending, clever twist at the close"]
    scenics = ["the scene description painted vivid landscapes everywhere",
               "gorgeous description of each scene and landscape",
               "every scene had rich description and vivid color",
               "the vivid scene description carried the landscape",
               "lush description made the scene feel alive",
               "scenes drawn with painterly description and light"]
    records = []
    for t in enders:
        records.append(CommentRecord(story_id="s", text=t, aspect=0,
                                     rating=0.75))
    for t in scenics:
        records.append(CommentRecord(story_id="s", text=t, aspect=1,
                                     rating=0.5))
    return records


def _crowd_fixture():
    # the aspect fixture with every sentiment class rated
    return [CommentRecord(story_id=f"s{i}", text=r.text, aspect=r.aspect,
                          rating=(i % 5) / 4)
            for i, r in enumerate(_aspect_fixture())]


def _class_probs(model, texts):
    return model.infer([tokenize(t, model.vocab, model.config.max_len) for t in texts])[1]


class TestClassifiers:
    def test_aspect_classifier_learns_separable(self):
        records = _aspect_fixture()
        clf = train_aspect_classifier(records, n_aspects=2, epochs=40,
                                      lr=3e-3, seed=0)
        assert isinstance(clf, Model)
        assert (clf.config.d_model, clf.config.n_enc_layers, clf.config.n_heads,
                clf.config.window, clf.config.max_len, clf.config.n_aspects,
                clf.config.dropout) == (48, 1, 2, 16, 64, 2, 0.0)
        assert clf.vocab.n_aspects == 2
        texts = [r.text for r in records]
        labels = [r.aspect for r in records]
        probs = _class_probs(clf, texts)
        assert probs.shape == (len(texts), 2)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-5
        assert float(np.mean(np.argmax(probs, axis=1) == labels)) == 1.0

    def test_filter_training_encodes_heads_only(self, monkeypatch):
        """A filter trains through v_s alone: one heads-only encode per step."""
        assert encode_flags(monkeypatch, lambda: train_aspect_classifier(
            _aspect_fixture(), n_aspects=2, epochs=2)) == [False, False]

    def test_missing_aspect_rejected(self):
        records = [r for r in _aspect_fixture() if r.aspect == 0]
        with pytest.raises(DataError):
            train_aspect_classifier(records, n_aspects=2)

    @pytest.mark.parametrize("aspect", [-1, 2])
    def test_out_of_range_aspect_rejected(self, aspect):
        records = _aspect_fixture() + [CommentRecord(
            story_id="s", text="an aspect this taxonomy lacks", aspect=aspect, rating=0.5)]
        with pytest.raises(ContractViolation, match="outside"):
            train_aspect_classifier(records, n_aspects=2, epochs=1)

    def test_sentiment_missing_class_rejected(self):
        records = _aspect_fixture()  # only ratings 0.75 and 0.5 present
        with pytest.raises(DataError):
            train_sentiment_scorer(records)


def _scorer(cls, tags=("good", "meh", "edge")):
    """A sentiment filter that gives every tagged comment class ``cls``."""
    return TableModel({t: np.eye(5)[cls - 1] for t in tags})


def _long(tag, n=20):
    return tag + " " + " ".join(f"w{i}" for i in range(n - 1))


class TestAugment:
    def test_short_comment_rejected_for_length(self):
        clf = TableModel({"good": [0.99, 0.01]})
        kept, audit = augment_comments(
            [{"story_id": "s", "text": "good but too short"}], clf,
            _scorer(5))
        assert kept == []
        assert audit["rejected_length"] == 1

    def test_overlong_comment_rejected(self):
        clf = TableModel({"good": [0.99, 0.01]})
        kept, audit = augment_comments(
            [{"story_id": "s", "text": _long("good", 51)}], clf, _scorer(5))
        assert kept == []
        assert audit["rejected_length"] == 1

    def test_boundary_lengths_kept(self):
        clf = TableModel({"good": [0.99, 0.01]})
        for n in (15, 50):
            kept, _ = augment_comments(
                [{"story_id": "s", "text": _long("good", n)}], clf,
                _scorer(3))
            assert len(kept) == 1

    def test_low_confidence_rejected(self):
        clf = TableModel({"meh": [0.85, 0.15]})
        kept, audit = augment_comments(
            [{"story_id": "s", "text": _long("meh")}], clf, _scorer(3))
        assert kept == []
        assert audit["rejected_confidence"] == 1

    def test_confidence_boundary_is_strict(self):
        clf = TableModel({"edge": [0.9, 0.1]})
        kept, audit = augment_comments(
            [{"story_id": "s", "text": _long("edge")}], clf, _scorer(3))
        assert kept == []
        assert audit["rejected_confidence"] == 1

    def test_kept_record_fields(self):
        clf = TableModel({"good": [0.05, 0.95]})
        kept, audit = augment_comments(
            [{"story_id": "st9", "text": _long("good")}], clf, _scorer(4))
        assert audit["kept"] == 1
        rec = kept[0]
        assert rec.story_id == "st9"
        assert rec.aspect == 1
        assert rec.rating == 0.75
        assert rec.source == "augmented"

    def test_per_aspect_cap(self):
        clf = TableModel({"good": [0.99, 0.01]})
        raw = [{"story_id": f"s{i}", "text": _long("good")} for i in range(5)]
        kept, audit = augment_comments(raw, clf, _scorer(5),
                                       per_aspect_cap=2)
        assert len(kept) == 2
        assert audit["rejected_cap"] == 3

    def test_audit_totals_balance(self):
        clf = TableModel({"good": [0.99, 0.01], "meh": [0.6, 0.4]})
        raw = [{"story_id": "a", "text": _long("good")},
               {"story_id": "b", "text": _long("meh")},
               {"story_id": "c", "text": "good tiny"}]
        kept, audit = augment_comments(raw, clf, _scorer(1))
        assert audit["total"] == 3
        assert audit["kept"] + audit["rejected_length"] + \
            audit["rejected_confidence"] + audit["rejected_cap"] == 3
        assert kept[0].rating == 0.0

    def test_trained_filters_match_per_comment_oracle(self, monkeypatch):
        crowd = _crowd_fixture()
        clf = train_aspect_classifier(crowd, n_aspects=2, epochs=10, seed=0)
        scorer = train_sentiment_scorer(crowd, epochs=10, seed=0)
        # pairs of crowd texts, which score lower, first, so a rejected comment
        # that counted toward the cap would change which crowd texts are kept;
        # then six halves too short to score and the crowd texts themselves
        texts = [r.text for r in crowd]
        pool = [f"{a} and {b}" for a, b in zip(texts, reversed(texts))]
        pool += [" ".join(t.split()[:4]) for t in texts[::2]] + texts
        raw = [{"story_id": f"r{i}", "text": t} for i, t in enumerate(pool)]
        sized = [t for t in pool if 5 <= len(t.split()) <= 30]
        # a confidence halfway between two neighbouring scores splits the pool
        best = np.sort(_class_probs(clf, sized).max(axis=1))
        mid = len(best) // 2
        confidence = float(best[mid - 1] + best[mid]) / 2
        kwargs = dict(confidence=confidence, min_words=5, max_words=30, per_aspect_cap=5)

        calls, real_infer = [], Model.infer

        def spy(model, id_seqs):
            calls.append(len(id_seqs))
            return real_infer(model, id_seqs)

        monkeypatch.setattr(Model, "infer", spy)
        kept, audit = augment_comments(raw, clf, scorer, **kwargs)
        assert calls == [len(sized), audit["kept"]]
        monkeypatch.setattr(Model, "infer", real_infer)
        want_kept, want_audit = reference_augment(raw, clf, scorer, **kwargs)
        assert kept == want_kept and audit == want_audit
        assert all(audit[k] > 0 for k in ("kept", "rejected_length",
                                          "rejected_confidence", "rejected_cap"))
