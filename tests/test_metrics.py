"""Metric spot values plus brute-force correlation oracles."""

import numpy as np
import pytest
from scipy import stats

from storyeval import rng as rng_mod
from storyeval.autodiff import Tensor
from storyeval.errors import ContractViolation, UndefinedCorrelationError
from storyeval.metrics import (
    MetricReport,
    _ranks,
    bleu_avg,
    correlation_pvalue,
    corpus_perplexity,
    is_significant,
    kendall,
    pairwise_accuracy,
    recall_at_k,
    render_report,
    rouge,
    score_distance,
    spearman,
)


# -- independent oracles --------------------------------------------------

def midranks(v):
    v = np.asarray(v, dtype=np.float64)
    out = np.empty(len(v))
    for i, xi in enumerate(v):
        out[i] = np.sum(v < xi) + (np.sum(v == xi) + 1) / 2.0
    return out


def spearman_oracle(x, y):
    rx, ry = midranks(x), midranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def kendall_oracle(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    conc = disc = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = np.sign(x[i] - x[j])
            dy = np.sign(y[i] - y[j])
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx != 0 and dy != 0:
                if dx == dy:
                    conc += 1
                else:
                    disc += 1
    n0 = n * (n - 1) / 2
    return float((conc - disc) / np.sqrt((n0 - tied_x) * (n0 - tied_y)))


def loop_pvalue(x, y, statistic, n_perm, seed):
    """One point-statistic call per shuffle of y: the loop the batched p-value replaced."""
    x = np.asarray(x, dtype=np.float64)
    shuffled = np.asarray(y, dtype=np.float64).copy()
    observed = abs(statistic(x, shuffled))
    rng = rng_mod.stream(seed, "correlation_pvalue")
    hits = 0
    for _ in range(n_perm):
        rng.shuffle(shuffled)
        if abs(statistic(x, shuffled)) >= observed - 1e-12:
            hits += 1
    return (1 + hits) / (n_perm + 1)


class TestPairwiseAccuracy:
    def test_half_right(self):
        assert pairwise_accuracy([(0.9, 0.2), (0.3, 0.4)]) == 0.5

    def test_all_correct(self):
        assert pairwise_accuracy([(0.9, 0.1), (0.8, 0.7)]) == 1.0

    def test_tie_counts_as_wrong(self):
        assert pairwise_accuracy([(0.5, 0.5)]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            pairwise_accuracy([])

    def test_order_invariant(self):
        pairs = [(0.9, 0.2), (0.3, 0.4), (0.6, 0.1)]
        assert pairwise_accuracy(pairs) == pairwise_accuracy(list(reversed(pairs)))


class TestScoreDistance:
    def test_mean_signed_gap(self):
        assert abs(score_distance([(0.9, 0.2), (0.3, 0.4)]) - 0.3) < 1e-12

    def test_identical_scores(self):
        assert score_distance([(0.4, 0.4)]) == 0.0

    def test_order_invariant(self):
        pairs = [(0.9, 0.2), (0.3, 0.4)]
        assert score_distance(pairs) == score_distance(list(reversed(pairs)))


class TestSpearman:
    def test_identity(self):
        assert spearman([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reversal(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_closed_form_example(self):
        got = spearman([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
        assert abs(got - 0.8) < 1e-12

    def test_zero_variance_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_short_input_rejected(self):
        with pytest.raises(ContractViolation):
            spearman([1, 2], [2, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        assert spearman(x, y) == pytest.approx(spearman(np.exp(x), y), abs=1e-12)
        assert spearman(x, y) == pytest.approx(spearman(x, y ** 3), abs=1e-12)


class TestKendall:
    def test_identity(self):
        assert kendall([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_two_concordant_one_discordant(self):
        assert abs(kendall([1, 2, 3], [1, 3, 2]) - 1.0 / 3.0) < 1e-12

    def test_reversal(self):
        assert kendall([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_zero_variance_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            kendall([2, 2, 2], [1, 2, 3])


class TestRanks:
    def test_equals_rankdata(self):
        # the p-values stay exact only if the ranks equal scipy's to the bit
        rng = np.random.default_rng(11)
        for n in range(1, 201):
            for x in (rng.standard_normal(n), rng.integers(0, max(1, n // 4), n)):
                assert np.array_equal(_ranks(x), stats.rankdata(x)), n


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["x", "y"])
def test_non_finite_input_is_undefined(bad, side):
    """A NaN would otherwise rank somewhere and give a finite, wrong rho, or a
    NaN statistic that no shuffle reaches and so a 'significant' p-value."""
    x, y = np.arange(8.0), np.array([2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0])
    (x if side == "x" else y)[3] = bad
    for call in (lambda: spearman(x, y), lambda: kendall(x, y),
                 lambda: correlation_pvalue(x, y, "spearman", n_perm=100),
                 lambda: correlation_pvalue(x, y, "kendall", n_perm=100)):
        with pytest.raises(UndefinedCorrelationError, match="non-finite"):
            call()


class TestOracleAgreement:
    def test_tie_free_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            assert abs(spearman(x, y) - spearman_oracle(x, y)) <= 1e-12
            assert abs(kendall(x, y) - kendall_oracle(x, y)) <= 1e-12

    def test_tied_vectors(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(5, 25))
            x = rng.integers(0, 5, size=n).astype(float)
            y = rng.integers(0, 5, size=n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert abs(spearman(x, y) - spearman_oracle(x, y)) <= 1e-12
            assert abs(kendall(x, y) - kendall_oracle(x, y)) <= 1e-12


class TestPermutationPvalue:
    def test_perfect_correlation_is_significant(self):
        x = np.arange(10, dtype=float)
        p = correlation_pvalue(x, x * 2 + 1, "spearman", n_perm=2000, seed=0)
        assert p <= 0.001
        assert is_significant(p)

    def test_independent_vectors_rarely_significant(self):
        rng = np.random.default_rng(123)
        insignificant = 0
        for trial in range(100):
            x = rng.standard_normal(50)
            y = rng.standard_normal(50)
            p = correlation_pvalue(x, y, "spearman", n_perm=150, seed=trial)
            if p > 0.01:
                insignificant += 1
        assert insignificant >= 90

    def test_zero_variance_propagates(self):
        with pytest.raises(UndefinedCorrelationError):
            correlation_pvalue(np.ones(10), np.arange(10.0), "spearman",
                               n_perm=50, seed=0)

    def test_small_n_rejected(self):
        with pytest.raises(ContractViolation):
            correlation_pvalue([1, 2, 3], [1, 2, 3], "spearman")

    @pytest.mark.parametrize("n_perm", [0, -1])
    def test_no_permutations_rejected(self, n_perm):
        with pytest.raises(ContractViolation, match=f"n_perm >= 1, got 6 and {n_perm}"):
            correlation_pvalue(np.arange(6.0), np.arange(6.0)[::-1], "spearman", n_perm=n_perm)

    def test_batched_equals_loop_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(24):
            n = int(rng.integers(5, 21))
            while True:
                if trial % 2:   # tied integer data
                    x, y = rng.integers(0, 4, n), rng.integers(0, 3, n)
                else:
                    x, y = rng.standard_normal(n), rng.standard_normal(n) + 0.5 * np.arange(n)
                if np.ptp(x) and np.ptp(y):
                    break
            for stat in (spearman, kendall):
                assert correlation_pvalue(x, y, stat, n_perm=300, seed=trial) \
                    == loop_pvalue(x, y, stat, 300, trial), (trial, stat.__name__)

    def test_exact_reversal_counts_as_hit(self):
        # 5 points give 120 orders: the identity and its reversal both reach
        # |rho| = 1 exactly, so every draw of either counts, rounding or not
        x = np.arange(5.0)
        rng = rng_mod.stream(0, "correlation_pvalue")
        order, extreme = np.arange(5), 0
        for _ in range(400):
            rng.shuffle(order)
            extreme += bool(np.all(np.diff(order) == 1) or np.all(np.diff(order) == -1))
        assert extreme > 0
        assert correlation_pvalue(x, x, "spearman", n_perm=400, seed=0) == (1 + extreme) / 401
        assert correlation_pvalue(x, x, kendall, n_perm=400, seed=0) == (1 + extreme) / 401

    def test_unknown_statistic_rejected(self):
        with pytest.raises(ContractViolation):
            correlation_pvalue(np.arange(6.0), np.arange(6.0), lambda a, b: 0.0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(20), rng.standard_normal(20)
        a = correlation_pvalue(x, y, "kendall", n_perm=200, seed=9)
        b = correlation_pvalue(x, y, "kendall", n_perm=200, seed=9)
        assert a == b


class TestRecallAtK:
    def test_full_containment(self):
        a_c = np.array([0.05, 0.3, 0.05, 0.25, 0.05, 0.1, 0.05, 0.05, 0.05, 0.05])
        assert recall_at_k(a_c, {1, 3}, 5) == 1.0

    def test_partial(self):
        a_c = np.zeros(10)
        a_c[3] = 0.9
        a_c[1] = 0.05
        assert recall_at_k(a_c, {1, 3}, 1) == 0.5

    def test_tie_breaks_to_lower_index(self):
        a_c = np.full(4, 0.25)
        assert recall_at_k(a_c, {0}, 1) == 1.0
        assert recall_at_k(a_c, {3}, 1) == 0.0

    def test_non_decreasing_in_k(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a_c = rng.dirichlet(np.ones(10))
            selected = set(rng.choice(10, size=3, replace=False).tolist())
            vals = [recall_at_k(a_c, selected, k) for k in range(1, 11)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_empty_selection_rejected(self):
        with pytest.raises(ContractViolation):
            recall_at_k(np.ones(5) / 5, set(), 1)

    def test_bad_k_rejected(self):
        with pytest.raises(ContractViolation):
            recall_at_k(np.ones(5) / 5, {0}, 6)


class TestBleu:
    def test_identity(self):
        toks = "the quick brown fox jumps".split()
        assert bleu_avg(toks, [toks]) == pytest.approx(1.0)

    def test_disjoint_small_positive(self):
        got = bleu_avg("a b c d".split(), ["w x y z".split()])
        assert 0.0 < got < 0.3

    def test_hand_counted_golden(self):
        got = bleu_avg("the cat sat".split(), ["the cat sat down".split()])
        assert abs(got - np.exp(-1.0 / 3.0)) < 1e-12

    def test_clipping(self):
        got = bleu_avg("the the the".split(), ["the cat".split()])
        # unigram precision clipped to 1/3; bigram 'the the' unmatched
        assert got < 0.5

    def test_empty_inputs_rejected(self):
        with pytest.raises(ContractViolation):
            bleu_avg([], [["a"]])
        with pytest.raises(ContractViolation):
            bleu_avg(["a"], [])


class TestRouge:
    def test_identity(self):
        assert rouge("a b c".split(), "a b c".split()) == pytest.approx(1.0)

    def test_disjoint(self):
        assert rouge("a b".split(), "x y".split()) == 0.0

    def test_hand_lcs(self):
        assert abs(rouge("a b c".split(), "a x c".split()) - 2.0 / 3.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            rouge([], ["a"])


class _FixedNllModel:
    """Every predicted token costs ``per_token_nll``; the encode walk yields
    one group holding every item."""

    def __init__(self, per_token_nll):
        self.per_token_nll = per_token_nll

    def encoded(self, story_seqs):
        yield np.arange(len(story_seqs)), None, None, None, None

    def encoded_comment_nll(self, states, lengths, picks, aspect_ks, comment_seqs,
                            reduce="mean"):
        assert reduce == "sum"
        n_tokens = sum(len(c) - 1 for c in comment_seqs)
        return Tensor(np.array(self.per_token_nll * n_tokens))


class TestCorpusPerplexity:
    def test_uniform_sixteen(self):
        model = _FixedNllModel(np.log(16.0))
        items = [([1], 0, list(range(5))), ([1], 1, list(range(3)))]
        assert corpus_perplexity(model, items) == pytest.approx(16.0, abs=1e-9)

    def test_perfect_model(self):
        model = _FixedNllModel(0.0)
        assert corpus_perplexity(model, [([1], 0, [1, 2])]) == pytest.approx(1.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractViolation):
            corpus_perplexity(_FixedNllModel(0.0), [])


class TestReport:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            MetricReport(acc=1.5)
        with pytest.raises(ContractViolation):
            MetricReport(rho=-1.2)

    def test_to_dict_skips_unset(self):
        rep = MetricReport(acc=0.75, recall={1: 0.2, 3: 0.5})
        assert rep.to_dict() == {"acc": 0.75, "recall@1": 0.2, "recall@3": 0.5}

    def test_render_stars_significant_correlations(self):
        rep = MetricReport(rho=0.58, rho_p=0.0005, tau=0.41, tau_p=0.2)
        text = render_report(rep)
        assert "0.5800*" in text
        assert "0.4100 " in text or "0.4100(" in text or "0.4100 (" in text

    def test_render_empty(self):
        assert "no metrics" in render_report(MetricReport())
