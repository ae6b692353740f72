"""Corpus pipeline: filtering, pairing, prompt splits, negatives."""

from pathlib import Path

import numpy as np
import pytest

from storyeval.corpus import (
    NegativeStory,
    RankedPair,
    Story,
    build_pairs,
    corpus_stats,
    filter_stories,
    generate_negative,
    parse_stories,
    sentences,
    split_by_prompt,
)
from storyeval.errors import ContractViolation, StoryTooShortError
from storyeval.jsonl import read_jsonl

DATA = Path(__file__).parent / "data"


def make_story(sid="s1", pid="p1", n_words=250, upvotes=100,
               created="2019-06-15"):
    n_sent, rem = divmod(n_words, 5)
    text = " ".join(f"w{i} a b c end." for i in range(n_sent))
    if rem:
        text += " " + " ".join(f"x{i}" for i in range(rem))
    s = Story(id=sid, prompt_id=pid, text=text, upvotes=upvotes, created_at=created)
    assert s.word_count == n_words
    return s


@pytest.fixture(scope="module")
def fixture_stories():
    stories, rejects = parse_stories(read_jsonl(DATA / "stories_fixture.jsonl"))
    assert not rejects
    return stories


class TestParse:
    def test_malformed_records_are_rejected_not_fatal(self):
        records = [
            {"id": "ok", "prompt_id": "p", "text": "hello world", "upvotes": 3,
             "created_at": "2020-01-01"},
            {"id": "bad-date", "prompt_id": "p", "text": "x", "upvotes": 0,
             "created_at": "not a date"},
            {"prompt_id": "p", "text": "missing id", "upvotes": 0,
             "created_at": "2020-01-01"},
            {"id": "bad-votes", "prompt_id": "p", "text": "x",
             "upvotes": "many", "created_at": "2020-01-01"},
        ]
        stories, rejects = parse_stories(records)
        assert [s.id for s in stories] == ["ok"]
        assert len(rejects) == 3
        assert all("reason" in r for r in rejects)

    def test_word_count_is_whitespace_tokens(self):
        s = Story(id="a", prompt_id="p", text="one two  three\nfour", upvotes=0,
                  created_at="2020-01-01")
        assert s.word_count == 4


class TestFilter:
    def test_six_story_boundary_fixture(self):
        stories = [
            make_story("a", n_words=150),
            make_story("b", n_words=200),
            make_story("c", n_words=800),
            make_story("d", n_words=801),
            make_story("e", n_words=500, created="2020-01-15"),
            make_story("f", n_words=500, created="2019-06-15"),
        ]
        kept, rejects = filter_stories(stories, 200, 800,
                                       exclude_from="2019-12-01",
                                       exclude_to="2020-03-31")
        assert [s.id for s in kept] == ["b", "c", "f"]
        reasons = {r["id"]: r["reason"] for r in rejects}
        assert reasons == {"a": "too_short", "d": "too_long", "e": "excluded_date"}

    def test_no_window_keeps_everything_in_band(self):
        kept, _ = filter_stories([make_story(created="2020-01-15")], 200, 800)
        assert len(kept) == 1

    def test_order_preserved(self):
        stories = [make_story(sid, n_words=300) for sid in "zyx"]
        kept, _ = filter_stories(stories, 200, 800)
        assert [s.id for s in kept] == ["z", "y", "x"]


class TestBuildPairs:
    def test_threshold_classes(self):
        stories = [make_story("A", upvotes=120), make_story("B", upvotes=-2),
                   make_story("C", upvotes=10)]
        assert build_pairs(stories) == [RankedPair("p1", "A", "B")]

    def test_cartesian_count(self):
        stories = ([make_story(f"h{i}", upvotes=60) for i in range(2)]
                   + [make_story(f"l{i}", upvotes=0) for i in range(3)])
        assert len(build_pairs(stories)) == 6

    def test_one_sided_prompt_yields_nothing(self):
        stories = [make_story("A", upvotes=120), make_story("B", upvotes=51)]
        assert build_pairs(stories) == []

    def test_boundary_votes_inclusive(self):
        stories = [make_story("h", upvotes=50), make_story("l", upvotes=0)]
        assert len(build_pairs(stories)) == 1

    def test_cap_per_prompt(self):
        stories = ([make_story(f"h{i}", upvotes=60) for i in range(3)]
                   + [make_story(f"l{i}", upvotes=0) for i in range(3)])
        assert len(build_pairs(stories, max_pairs_per_prompt=4)) == 4

    def test_pair_invariants_on_random_fixtures(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            stories = [make_story(f"s{i}", pid=f"p{rng.integers(4)}",
                                  upvotes=int(rng.integers(-20, 200)))
                       for i in range(30)]
            by_id = {s.id: s for s in stories}
            for pair in build_pairs(stories):
                high, low = by_id[pair.high_id], by_id[pair.low_id]
                assert high.upvotes >= 50
                assert low.upvotes <= 0
                assert high.prompt_id == low.prompt_id == pair.prompt_id
                assert pair.high_id != pair.low_id


class TestSplit:
    def make_pairs(self, n_prompts, per_prompt=2):
        return [RankedPair(f"p{i:02d}", f"h{i}_{j}", f"l{i}_{j}")
                for i in range(n_prompts) for j in range(per_prompt)]

    def test_prompt_sets_disjoint(self):
        splits = split_by_prompt(self.make_pairs(10), seed=3)
        sets = [{p.prompt_id for p in ps} for ps in splits.values()]
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])

    def test_largest_remainder_sizes(self):
        splits = split_by_prompt(self.make_pairs(10), ratios=(0.8, 0.1, 0.1), seed=0)
        sizes = [len({p.prompt_id for p in ps}) for ps in splits.values()]
        assert sizes == [8, 1, 1]

    def test_deterministic_and_order_invariant(self):
        pairs = self.make_pairs(12)
        a = split_by_prompt(pairs, seed=5)
        b = split_by_prompt(list(reversed(pairs)), seed=5)
        assert a == b

    def test_different_seed_different_partition(self):
        pairs = self.make_pairs(20)
        a = split_by_prompt(pairs, seed=1)
        b = split_by_prompt(pairs, seed=2)
        assert any(a[k] != b[k] for k in a)

    def test_too_few_prompts_rejected(self):
        with pytest.raises(ContractViolation):
            split_by_prompt(self.make_pairs(2), ratios=(0.8, 0.1, 0.1), seed=0)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ContractViolation):
            split_by_prompt(self.make_pairs(10), ratios=(0.5, 0.2), seed=0)

    @pytest.mark.parametrize("ratios", [(0.4, 0.3, 0.2, 0.1), (1.2, -0.1, -0.1), (1.0,),
                                        (0.5, float("nan"), 0.5)],
                             ids=["four", "negative", "one", "nan"])
    def test_ratios_other_than_two_or_three_shares_rejected(self, ratios):
        # four once ended in a KeyError, and negative shares in a train-only split
        with pytest.raises(ContractViolation, match="2 or 3 numbers >= 0 summing to 1"):
            split_by_prompt(self.make_pairs(12), ratios=ratios, seed=0)

    def test_two_ratios_split_train_and_val(self):
        splits = split_by_prompt(self.make_pairs(12), ratios=(0.75, 0.25), seed=0)
        assert list(splits) == ["train", "val"]
        assert [len({p.prompt_id for p in ps}) for ps in splits.values()] == [9, 3]

    def test_every_pair_lands_exactly_once(self):
        pairs = self.make_pairs(9, per_prompt=3)
        splits = split_by_prompt(pairs, seed=11)
        merged = [p for ps in splits.values() for p in ps]
        assert sorted(merged, key=str) == sorted(pairs, key=str)


class TestStats:
    def test_hand_computed_counts(self, fixture_stories):
        pairs = build_pairs(fixture_stories)
        assert len(pairs) == 8
        stats = corpus_stats({"all": pairs}, fixture_stories)["all"]
        assert stats == {
            "prompts": 4, "high_stories": 5, "low_stories": 6, "pairs": 8,
            "mean_words_high": 30.0, "mean_words_low": 20.0,
        }


class TestSentences:
    def test_terminators_and_tail(self):
        text = "First one. Second, yes! Third? tail without end"
        assert sentences(text) == ["First one.", "Second, yes!", "Third?",
                                   "tail without end"]


class TestNegatives:
    def test_shuffle_preserves_sentence_multiset(self, fixture_stories):
        src = fixture_stories[0]
        neg = generate_negative(src, "shuffle", seed=4)
        assert sorted(sentences(neg.text)) == sorted(sentences(src.text))
        assert neg.text != src.text
        assert isinstance(neg, NegativeStory)

    def test_shuffle_never_identity_across_seeds(self, fixture_stories):
        src = fixture_stories[0]
        for seed in range(30):
            assert generate_negative(src, "shuffle", seed).text != src.text

    def test_repeat_raises_one_sentence_multiplicity(self, fixture_stories):
        src = fixture_stories[3]
        neg = generate_negative(src, "repeat", seed=4)
        before = {s: sentences(src.text).count(s) for s in sentences(src.text)}
        after = sentences(neg.text)
        gained = [s for s in set(after) if after.count(s) > before.get(s, 0)]
        assert len(gained) == 1

    def test_repeat_word_band(self, fixture_stories):
        src = fixture_stories[3]
        for seed in range(10):
            neg = generate_negative(src, "repeat", seed)
            assert abs(len(neg.text.split()) - src.word_count) <= 0.2 * src.word_count

    def test_substitute_matches_golden(self, fixture_stories):
        golden = (DATA / "golden" / "substitute_s01.txt").read_text().rstrip("\n")
        neg = generate_negative(fixture_stories[0], "substitute", seed=13)
        assert neg.text == golden

    def test_deterministic_per_story_kind_seed(self, fixture_stories):
        src = fixture_stories[0]
        for kind in ("shuffle", "repeat", "substitute"):
            a = generate_negative(src, kind, seed=9)
            b = generate_negative(src, kind, seed=9)
            assert a == b

    def test_too_short_story_raises(self):
        short = Story(id="x", prompt_id="p", text="One. Two. Three.", upvotes=0,
                      created_at="2020-01-01")
        with pytest.raises(StoryTooShortError):
            generate_negative(short, "shuffle", seed=0)

    def test_unknown_kind_rejected(self, fixture_stories):
        with pytest.raises(ContractViolation):
            generate_negative(fixture_stories[0], "mangle", seed=0)
