"""Objective spot values and gradient flow through the model heads."""

import numpy as np
import pytest

from storyeval import autodiff as ad
from storyeval.autodiff import Tensor
from storyeval.errors import ContractViolation
from storyeval.losses import (
    coherence_rank_loss,
    confidence_loss,
    discrimination_loss,
    joint_loss,
    margin_rank_loss,
    rating_loss,
)
from storyeval.model import Model, ModelConfig, predict_aspects, predict_preference
from storyeval.vocab import build_vocab, tokenize

from helpers import FD_RUNGS, check_sampled_grads, rung_errors

TOL = 1e-9


def val(t):
    return float(t.data)


class TestMarginRank:
    def test_inactive_when_gap_exceeds_margin(self):
        assert val(margin_rank_loss(0.9, 0.2, 0.3)) == 0.0

    def test_equal_scores_cost_the_margin(self):
        assert abs(val(margin_rank_loss(0.5, 0.5, 0.3)) - 0.3) < TOL

    def test_partial_gap(self):
        assert abs(val(margin_rank_loss(0.4, 0.3, 0.3)) - 0.2) < TOL

    def test_margin_must_be_positive(self):
        with pytest.raises(ContractViolation):
            margin_rank_loss(0.5, 0.4, 0.0)

    def test_active_gradient_is_minus_one(self):
        p_high = Tensor(np.array(0.4), requires_grad=True)
        p_low = Tensor(np.array(0.3), requires_grad=True)
        margin_rank_loss(p_high, p_low, 0.3).backward()
        assert float(p_high.grad) == -1.0
        assert float(p_low.grad) == 1.0

    def test_inactive_gradient_is_zero(self):
        p_high = Tensor(np.array(0.9), requires_grad=True)
        p_low = Tensor(np.array(0.2), requires_grad=True)
        margin_rank_loss(p_high, p_low, 0.3).backward()
        assert float(p_high.grad) == 0.0

    def test_swap_antisymmetry(self):
        assert abs(val(margin_rank_loss(0.2, 0.8, 0.3)) - 0.9) < TOL
        assert val(margin_rank_loss(0.8, 0.2, 0.3)) == 0.0

    def test_batched_mean(self):
        high = Tensor(np.array([0.9, 0.5]))
        low = Tensor(np.array([0.2, 0.5]))
        assert abs(val(margin_rank_loss(high, low, 0.3)) - 0.15) < TOL


class TestCoherenceRank:
    def test_inactive(self):
        assert val(coherence_rank_loss(0.5, 0.1, 0.3)) == 0.0

    def test_equal_scores(self):
        assert abs(val(coherence_rank_loss(0.5, 0.5, 0.3)) - 0.3) < TOL

    def test_combined_with_preference_hinge(self):
        total = val(margin_rank_loss(0.5, 0.5, 0.3)) + val(coherence_rank_loss(0.5, 0.5, 0.3))
        assert abs(total - 0.6) < TOL


class TestConfidence:
    def test_one_hot_match_is_near_zero(self):
        a_c = np.zeros(10)
        a_c[3] = 1.0
        y = np.zeros(10)
        y[3] = 1.0
        assert val(confidence_loss(a_c, y)) <= 1e-11

    def test_uniform_three_selected(self):
        y = np.zeros(10)
        y[[1, 4, 7]] = 1.0
        got = val(confidence_loss(np.full(10, 0.1), y))
        assert abs(got - (-3.0 * np.log(0.1))) < TOL

    def test_uniform_one_selected(self):
        y = np.zeros(10)
        y[0] = 1.0
        assert abs(val(confidence_loss(np.full(10, 0.1), y)) - np.log(10.0)) < TOL

    def test_zero_probability_is_clamped(self):
        a_c = np.zeros(4)
        a_c[0] = 1.0
        y = np.zeros(4)
        y[1] = 1.0
        assert abs(val(confidence_loss(a_c, y)) - (-np.log(1e-12))) < 1e-6

    def test_no_selection_rejected(self):
        with pytest.raises(ContractViolation):
            confidence_loss(np.full(4, 0.25), np.zeros(4))


class TestRating:
    def test_perfect_prediction_vanishes(self):
        assert val(rating_loss(np.array([[1.0 - 1e-12]]), np.array([[1.0]]),
                               np.array([[1.0]]))) <= 1e-9

    def test_bce_at_half(self):
        got = val(rating_loss(np.array([[0.5]]), np.array([[0.5]]), np.array([[1.0]])))
        assert abs(got - np.log(2.0)) < TOL

    def test_bce_at_half_is_target_independent(self):
        got = val(rating_loss(np.array([[0.5]]), np.array([[0.8]]), np.array([[1.0]])))
        assert abs(got - np.log(2.0)) < TOL

    def test_unselected_aspects_contribute_nothing(self):
        a = np.array([[0.5, 0.01, 0.99]])
        y = np.array([[0.5, 1.0, 0.0]])
        got = val(rating_loss(a, y, np.array([[1.0, 0.0, 0.0]])))
        assert abs(got - np.log(2.0)) < TOL

    def test_empty_selection_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            got = val(rating_loss(np.array([[0.5]]), np.array([[0.5]]), np.array([[0.0]])))
        assert got == 0.0

    def test_batched_mask(self):
        a = np.full((2, 3), 0.5)
        y = np.full((2, 3), 1.0)
        mask = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        got = val(rating_loss(a, y, mask))
        assert abs(got - 1.5 * np.log(2.0)) < TOL


class TestSequenceNll:
    """The comment loss's op, ``autodiff.token_nll``: the summed NLL of the
    unmasked targets, which ``Model.encoded_comment_nll`` divides by their
    count for ``mean``."""

    def test_hand_evaluated_two_token_mean(self):
        logits = Tensor(np.log(np.array([[[0.5, 0.5], [0.25, 0.75]]])))
        got = val(ad.token_nll(logits, np.array([[0, 0]]), np.ones((1, 2)))) / 2.0
        assert abs(got - (np.log(2.0) + np.log(4.0)) / 2.0) < TOL
        assert abs(got - 1.0397) < 1e-4

    def test_uniform_is_log_vocab(self):
        logits = Tensor(np.zeros((1, 5, 16)))
        got = val(ad.token_nll(logits, np.zeros((1, 5), dtype=np.int64), np.ones((1, 5))))
        assert abs(got - 5.0 * np.log(16.0)) < TOL

    def test_confident_model_near_zero(self):
        logits = np.full((1, 3, 8), -50.0)
        for t, tok in enumerate([2, 5, 1]):
            logits[0, t, tok] = 50.0
        got = val(ad.token_nll(Tensor(logits), np.array([[2, 5, 1]]), np.ones((1, 3))))
        assert got < 1e-9

    def test_mask_and_sum_variant(self):
        logits = Tensor(np.zeros((2, 3, 4)))
        targets = np.zeros((2, 3), dtype=np.int64)
        mask = np.array([[1, 1, 0], [1, 0, 0]], dtype=bool)
        total = val(ad.token_nll(logits, targets, mask))
        assert abs(total - 3.0 * np.log(4.0)) < TOL
        assert abs(total / mask.sum() - np.log(4.0)) < TOL


class TestJoint:
    def test_addition(self):
        assert abs(float(joint_loss(0.3, 2.3026, 0.6931, 1.0)) - 4.2957) < TOL

    def test_single_task_ablation(self):
        total = joint_loss(0.3)
        assert float(total) == 0.3
        assert total.data.dtype == np.float64

    def test_all_zero(self):
        assert float(joint_loss(0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_graph_total_matches_and_backprops(self):
        x = Tensor(np.array(0.25, dtype=np.float32), requires_grad=True)
        total = joint_loss(x * 2.0, 0.5, x * 1.0, 0.0)
        total.backward()
        assert float(x.grad) == 3.0
        assert abs(float(total) - 1.25) < TOL
        # the disabled parts are constant zeros of the enabled parts' dtype
        assert total.data.dtype == np.float32


class TestDiscrimination:
    def test_bce_at_half(self):
        assert abs(val(discrimination_loss(0.5, 1)) - np.log(2.0)) < TOL

    def test_confident_correct_vanishes(self):
        assert val(discrimination_loss(1.0 - 1e-12, 1)) <= 1e-9



@pytest.fixture(scope="module")
def tiny_model():
    texts = ["a knight rode into the storm", "the dog slept by the door",
             "she wrote letters nobody read"]
    vocab = build_vocab(texts, size=40, n_aspects=2)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_enc_layers=1,
                      n_dec_layers=1, n_heads=2, window=4, max_len=24,
                      n_aspects=2, dropout=0.0)
    model = Model(cfg, vocab, rng=np.random.default_rng(9), dtype=np.float64)
    ids = [tokenize(t, vocab, cfg.max_len) for t in texts]
    return model, vocab, ids


class TestGradientFlowThroughHeads:
    """Every objective FD-checks end to end through encoder and heads."""

    def test_ranking_hinges(self, tiny_model):
        model, _, ids = tiny_model

        def make_loss():
            v_s, _, _ = model.encode_stories(ids)
            p = predict_preference(model.params, v_s)
            pref = margin_rank_loss(p[[0]], p[[1]], 0.3)
            coh = coherence_rank_loss(p[[1]], p[[2]], 0.3)
            return pref + coh

        check_sampled_grads(make_loss, model.params, np.random.default_rng(0))

    def test_aspect_losses(self, tiny_model):
        model, _, ids = tiny_model
        y_c = np.array([[1.0, 0.0], [1.0, 1.0]])
        y_r = np.array([[0.75, 0.0], [0.25, 1.0]])
        mask = np.array([[1.0, 0.0], [1.0, 1.0]])

        def make_loss():
            v_s, _, _ = model.encode_stories(ids[:2])
            a_c, a_r = predict_aspects(model.params, v_s)
            return confidence_loss(a_c, y_c) + rating_loss(a_r, y_r, mask)

        check_sampled_grads(make_loss, model.params, np.random.default_rng(1))

    def test_comment_mle(self, tiny_model):
        model, vocab, ids = tiny_model
        comment = np.array([vocab.bos_id, vocab.id_of("the"), vocab.id_of("dog"),
                            vocab.eos_id])

        def make_loss():
            return model.comment_nll([ids[1]], [1], [comment])

        check_sampled_grads(make_loss, model.params, np.random.default_rng(2))

    def test_discrimination(self, tiny_model):
        model, _, ids = tiny_model

        def make_loss():
            v_s, _, _ = model.encode_stories(ids[:2])
            p = predict_preference(model.params, v_s)
            return discrimination_loss(p, np.array([1.0, 0.0]))

        check_sampled_grads(make_loss, model.params, np.random.default_rng(3))


def test_wrong_backward_misses_at_every_rung(tiny_model, monkeypatch):
    """Negative control for both finite-difference rules: with relu's
    backward scaled by 1.01, every gradient through the feed-forward layers
    is 1 % off, and no refinement of the step hides that.  The rules are
    ``check_sampled_grads`` (h 1e-4, floor 1e-3) and test_02's
    (h 1e-4 * max(1, |x|), floor 1e-4)."""
    model, vocab, ids = tiny_model
    comment = np.array([vocab.bos_id, vocab.id_of("the"), vocab.id_of("dog"),
                        vocab.eos_id])
    real_relu = ad.relu

    def wrong_relu(a):
        out = real_relu(a)
        if out._backward is not None:
            right = out._backward
            out._backward = lambda g: tuple(1.01 * x for x in right(g))
        return out

    def make_loss():
        return model.comment_nll([ids[1]], [1], [comment])

    monkeypatch.setattr(ad, "relu", wrong_relu)
    with pytest.raises(AssertionError):
        check_sampled_grads(make_loss, model.params, np.random.default_rng(2))
    ad.forward_backward(make_loss(), model.params)
    w1, checked = model.params["enc0.ff.w1"], 0
    for i in np.flatnonzero(np.abs(w1.grad.reshape(-1)) > 2e-3)[:4]:
        analytic = w1.grad.reshape(-1)[i]
        for h, floor in ((1e-4, 1e-3), (1e-4 * max(1.0, abs(w1.data.reshape(-1)[i])), 1e-4)):
            errors = rung_errors(lambda: make_loss().data, w1.data, int(i), analytic, h,
                                 floor, 1e-3)
            assert len(errors) == FD_RUNGS and min(errors) > 1e-3, errors
            checked += 1
    assert checked == 8
