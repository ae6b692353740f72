import json

import numpy as np
import pytest

from storyeval import autodiff as ad
from storyeval import cli
from storyeval import model as model_mod
from storyeval import training as training_mod
from storyeval import rng as rng_mod
from storyeval.aspects import AspectTaxonomy
from storyeval.corpus import RankedPair, build_pairs, generate_negative, split_by_prompt
from storyeval.errors import ConfigError, ContractViolation
from storyeval.jsonl import write_json, write_jsonl
from storyeval.model import Model, ModelConfig
from storyeval.optim import steps_per_epoch
from storyeval.synthetic import make_aspect_comments, make_preference_corpus
from storyeval.training import (
    LOG_HEADER,
    LogRow,
    TrainConfig,
    TrainData,
    Trainer,
    evaluate_pairs,
    pair_scores,
    score_texts,
)
from storyeval.vocab import build_vocab, tokenize

from helpers import (
    encode_flags,
    reference_backward,
    reference_heads,
    reference_train_step,
    tape_ops,
)


def _setup(n_prompts=20, seed=0, with_comments=False, with_negatives=False,
           d_model=24, dtype=np.float32, dropout=0.0):
    stories = make_preference_corpus(n_prompts=n_prompts, seed=seed)
    pairs = build_pairs(stories)
    splits = split_by_prompt(pairs, seed=seed)
    by_id = {s.id: s for s in stories}
    comments = {}
    texts = [s.text for s in stories]
    if with_comments:
        for rec in make_aspect_comments(stories, seed=seed):
            comments.setdefault(rec.story_id, []).append(rec)
            texts.append(rec.text)
    vocab = build_vocab(texts, size=400, n_aspects=10)
    config = ModelConfig(vocab_size=len(vocab), d_model=d_model,
                         n_enc_layers=1, n_dec_layers=1, n_heads=2, window=8,
                         max_len=96, n_aspects=10, dropout=dropout)
    model = Model(config, vocab, rng=rng_mod.stream(seed, "init"), dtype=dtype)
    negatives = {}
    if with_negatives:
        for p in splits["train"]:
            lo = by_id[p.low_id]
            negatives[lo.id] = [generate_negative(lo, "shuffle", seed=3).text]
    data = TrainData(stories=by_id, train_pairs=splits["train"],
                     val_pairs=splits["val"], comments=comments,
                     negatives=negatives)
    return model, data, splits


class TestConfigValidation:
    def test_unknown_objective(self):
        with pytest.raises(ConfigError):
            TrainConfig(objective="triplet")

    def test_comments_require_aspects(self):
        with pytest.raises(ConfigError):
            TrainConfig(use_comments=True, use_aspects=False)

    def test_nothing_enabled(self):
        with pytest.raises(ConfigError):
            TrainConfig(use_ps=False)

    def test_negatives_need_data(self):
        model, data, _ = _setup()
        with pytest.raises(ConfigError):
            Trainer(model, data, TrainConfig(use_negatives=True, epochs=1))

    def test_aspects_need_records(self):
        model, data, _ = _setup()
        with pytest.raises(ConfigError):
            Trainer(model, data, TrainConfig(use_aspects=True, epochs=1))

    def test_no_pairs(self):
        model, data, _ = _setup()
        data.train_pairs = []
        with pytest.raises(ContractViolation):
            Trainer(model, data, TrainConfig(epochs=1))


class TestLogRows:
    def test_header_and_format(self):
        row = LogRow(step=3, lr=0.001, l_ps=0.25, l_ac=0.0, l_ar=0.0, l_c=0.0,
                     l_total=0.25)
        assert LOG_HEADER == "step,lr,L_ps,L_ac,L_ar,L_c,L_total"
        line = row.csv_line()
        parts = line.split(",")
        assert parts[0] == "3"
        assert float(parts[1]) == 0.001
        # repr floats roundtrip exactly
        assert float(parts[2]) == 0.25

    def test_ps_only_run_zeroes_other_components(self, tmp_path):
        model, data, _ = _setup()
        trainer = Trainer(model, data, TrainConfig(batch_size=8, epochs=2,
                                                   peak_lr=1e-3, seed=0))
        log_path = tmp_path / "train.csv"
        res = trainer.train(log_path=log_path)
        assert res.rows
        for row in res.rows:
            assert row.l_ac == 0.0 and row.l_ar == 0.0 and row.l_c == 0.0
            assert row.l_total == row.l_ps
        lines = log_path.read_text().splitlines()
        assert lines[0] == LOG_HEADER
        assert len(lines) == 1 + len(res.rows)

    def test_total_recomputes_bitwise(self):
        model, data, _ = _setup(with_comments=True)
        cfg = TrainConfig(batch_size=8, epochs=1, peak_lr=1e-3, seed=0,
                          use_aspects=True, use_comments=True)
        res = Trainer(model, data, cfg).train()
        for row in res.rows:
            assert ((row.l_ps + row.l_ac) + row.l_ar) + row.l_c == row.l_total

    def test_negative_component_rejected(self):
        with pytest.raises(ContractViolation, match="l_ac must be non-negative"):
            LogRow(step=0, lr=0.0, l_ps=0.1, l_ac=-0.1, l_ar=0.0, l_c=0.0, l_total=0.0)

    def test_step_and_run_return_their_records(self):
        model, data, _ = _setup()
        trainer = Trainer(model, data, TrainConfig(batch_size=8, epochs=1, seed=0))
        row = trainer.train_step(data.train_pairs[:8])
        assert trainer.rows == [row] and row is trainer.rows[-1] and row.step == 0
        assert trainer.train() is trainer
        assert trainer.final_val_acc == trainer.validation_accuracy()


class TestDeterminism:
    def test_same_seed_same_log(self, tmp_path):
        lines = []
        for run in range(2):
            model, data, _ = _setup(seed=0)
            trainer = Trainer(model, data,
                              TrainConfig(batch_size=8, epochs=2,
                                          peak_lr=1e-3, seed=5))
            path = tmp_path / f"log{run}.csv"
            trainer.train(log_path=path)
            lines.append(path.read_text())
        assert lines[0] == lines[1]

    def test_different_seed_differs(self):
        rows = []
        for seed in (0, 1):
            model, data, _ = _setup(seed=0)
            trainer = Trainer(model, data,
                              TrainConfig(batch_size=8, epochs=2,
                                          peak_lr=1e-3, seed=seed))
            rows.append([r.csv_line() for r in trainer.train().rows])
        assert rows[0] != rows[1]


class TestTraining:
    def test_learns_synthetic_signal(self):
        model, data, splits = _setup(n_prompts=40, d_model=32)
        trainer = Trainer(model, data, TrainConfig(batch_size=16, epochs=6,
                                                   peak_lr=1e-3, seed=0))
        res = trainer.train()
        assert res.final_val_acc >= 0.75
        acc = evaluate_pairs(model, data.stories, splits["test"])
        assert acc >= 0.75

    def test_step_count_matches_schedule(self):
        model, data, _ = _setup()
        cfg = TrainConfig(batch_size=8, epochs=3, peak_lr=1e-4, seed=0)
        trainer = Trainer(model, data, cfg)
        trainer.train()
        import math
        expected = 3 * math.ceil(len(data.train_pairs) / 8)
        assert trainer.step == expected

    def test_negatives_and_joint_components_logged(self):
        model, data, _ = _setup(with_comments=True, with_negatives=True)
        cfg = TrainConfig(batch_size=8, epochs=1, peak_lr=1e-3, seed=0,
                          use_aspects=True, use_comments=True,
                          use_negatives=True)
        res = Trainer(model, data, cfg).train()
        row = res.rows[0]
        assert row.l_ac > 0.0
        assert row.l_ar > 0.0
        assert row.l_c > 0.0
        assert np.isfinite(row.l_total)

    def test_discrimination_objective_runs(self):
        model, data, _ = _setup()
        cfg = TrainConfig(batch_size=8, epochs=1, peak_lr=1e-3, seed=0,
                          objective="discrimination")
        res = Trainer(model, data, cfg).train()
        assert all(np.isfinite(r.l_ps) for r in res.rows)
        # BCE of a near-0.5 sigmoid starts around log 2
        assert 0.2 < res.rows[0].l_ps < 2.0


class TestCheckpointing:
    def test_best_checkpoint_reloads(self, tmp_path):
        model, data, _ = _setup(n_prompts=30, d_model=32)
        cfg = TrainConfig(batch_size=8, epochs=4, peak_lr=1e-3, seed=0)
        path = tmp_path / "best.ckpt"
        res = Trainer(model, data, cfg).train(checkpoint_path=path)
        assert path.exists()
        from storyeval.checkpoint import load_checkpoint
        ck = load_checkpoint(path)
        fresh = Model(ck.config, model.vocab, params=ck.params)
        acc = evaluate_pairs(fresh, data.stories, data.val_pairs)
        assert acc == pytest.approx(res.best_val_acc)

    @pytest.mark.parametrize("eval_every", [0, "epoch"])
    def test_final_validation_reuses_the_last(self, tmp_path, monkeypatch, eval_every):
        model, data, _ = _setup()
        per_epoch = steps_per_epoch(len(data.train_pairs), 8)
        cfg = TrainConfig(batch_size=8, epochs=2, peak_lr=1e-3, seed=0,
                          eval_every=per_epoch if eval_every == "epoch" else 0)
        calls, real = [], training_mod.evaluate_pairs

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(training_mod, "evaluate_pairs", counting)
        trainer = Trainer(model, data, cfg)
        ckpt, log = tmp_path / "model.ckpt", tmp_path / "train_log.csv"
        res = trainer.train(checkpoint_path=ckpt, log_path=log)
        assert len(calls) == 2
        files = ckpt.read_bytes(), log.read_bytes()
        # the validation the run used to repeat after its last step gives the
        # same value and writes nothing
        acc = trainer.validation_accuracy()
        trainer._maybe_checkpoint(ckpt, acc)
        assert acc == res.final_val_acc
        assert (ckpt.read_bytes(), log.read_bytes()) == files

    def test_resume_continues_from_step(self, tmp_path):
        model, data, _ = _setup()
        path = tmp_path / "run.ckpt"
        cfg = TrainConfig(batch_size=8, epochs=1, peak_lr=1e-4, seed=0)
        first = Trainer(model, data, cfg)
        first.train(checkpoint_path=path)
        start = first.step
        cfg2 = TrainConfig(batch_size=8, epochs=2, peak_lr=1e-4, seed=0)
        second = Trainer(Model(model.config, model.vocab,
                               rng=rng_mod.stream(9, "other")),
                         data, cfg2)
        second.train(checkpoint_path=path, resume=True)
        assert second.step == 2 * start

    def test_resume_refuses_config_mismatch(self, tmp_path):
        model, data, _ = _setup()
        path = tmp_path / "run.ckpt"
        cfg = TrainConfig(batch_size=8, epochs=1, peak_lr=1e-4, seed=0)
        Trainer(model, data, cfg).train(checkpoint_path=path)
        other_cfg = ModelConfig(**{**model.config.__dict__, "d_model": 16})
        other = Model(other_cfg, model.vocab, rng=rng_mod.stream(1, "x"))
        with pytest.raises(ConfigError, match="hash"):
            Trainer(other, data, cfg).train(checkpoint_path=path, resume=True)

    def test_resume_refuses_seed_mismatch(self, tmp_path):
        """Every draw depends on the seed, so a checkpoint of seed 0 cannot
        continue a run of seed 1; the error names both seeds."""
        model, data, _ = _setup()
        path = tmp_path / "run.ckpt"
        Trainer(model, data, TrainConfig(batch_size=8, epochs=1, peak_lr=1e-4, seed=0)).train(
            checkpoint_path=path)
        cfg = TrainConfig(batch_size=8, epochs=2, peak_lr=1e-4, seed=1)
        with pytest.raises(ConfigError, match=r"seed \('\w+', 0\) != the run's \('\w+', 1\)"):
            Trainer(model, data, cfg).train(checkpoint_path=path, resume=True)

    def test_resume_without_checkpoint(self):
        model, data, _ = _setup()
        cfg = TrainConfig(batch_size=8, epochs=1, seed=0)
        with pytest.raises(ConfigError):
            Trainer(model, data, cfg).train(resume=True)


class Cut(Exception):
    """The interruption of a run."""


class TestExactResume:
    """A CLI ``train`` cut after step k and run again with ``--resume``
    leaves the checkpoint, the log and the manifest of a run never cut: the
    resume replays from the best checkpoint's step, drawing each step's
    negatives, comment picks and dropout from (seed, step) as before."""

    @staticmethod
    def _config(root, eval_every, dropout, peak_lr) -> tuple:
        """A joint run's config (negatives, comments, aspects) and its steps
        per epoch.  It validates on the training pairs too, so that the best
        checkpoint moves as the run learns."""
        stories = make_preference_corpus(n_prompts=40, seed=0)
        by_id = {s.id: s for s in stories}
        splits = split_by_prompt(build_pairs(stories), seed=0)
        write_jsonl(root / "stories.jsonl", [s.to_record() for s in stories])
        write_jsonl(root / "train.jsonl", [p.to_record() for p in splits["train"]])
        write_jsonl(root / "val.jsonl", [p.to_record() for p in splits["train"] + splits["val"]])
        write_jsonl(root / "comments.jsonl",
                    [c.to_record() for c in make_aspect_comments(stories, seed=0)])
        # two negatives per rejected story, so every pick draws
        write_jsonl(root / "negatives.jsonl", [
            {"source_story_id": p.low_id,
             "text": generate_negative(by_id[p.low_id], kind, seed=3).text}
            for p in splits["train"] for kind in ("shuffle", "repeat")])
        AspectTaxonomy.default().save(root / "taxonomy.json")
        write_json(root / "cfg.json", {
            "seed": 0,
            "model": {"d_model": 24, "n_enc_layers": 1, "n_dec_layers": 1, "n_heads": 2,
                      "window": 8, "max_len": 96, "dropout": dropout},
            "train": {"epochs": 4, "batch_size": 8, "peak_lr": peak_lr, "use_aspects": True,
                      "use_comments": True, "use_negatives": True, "eval_every": eval_every},
            "data": {**{key: str(root / f"{key}.jsonl")
                        for key in ("stories", "comments", "negatives")},
                     "pairs_train": str(root / "train.jsonl"),
                     "pairs_val": str(root / "val.jsonl"),
                     "taxonomy": str(root / "taxonomy.json"), "vocab_size": 400}})
        return root / "cfg.json", steps_per_epoch(len(splits["train"]), 8)

    @staticmethod
    def _outputs(out) -> tuple:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        del manifest["environment"]
        return ((out / "model.ckpt").read_bytes(), (out / "train_log.csv").read_bytes(),
                manifest)

    @pytest.mark.parametrize("eval_every,dropout,peak_lr", [(0, 0.0, 1e-2), (3, 0.1, 2e-2)])
    def test_cut_and_resumed_run_equals_the_whole_run(self, tmp_path, monkeypatch, capsys,
                                                      eval_every, dropout, peak_lr):
        cfg, per_epoch = self._config(tmp_path, eval_every, dropout, peak_lr)

        def train(out, *flags) -> int:
            return cli.main(["train", "--config", str(cfg), "--out-dir", str(out), *flags])

        assert train(tmp_path / "whole") == 0
        want = self._outputs(tmp_path / "whole")
        steps, every = want[2]["steps"], eval_every or per_epoch
        # resumes start from more than one checkpoint
        assert steps == 4 * per_epoch and want[2]["best_step"] >= 2 * every
        real = Trainer.train_step

        def cut_at(k):
            def step(self, batch):
                if self.step == k:
                    raise Cut(k)
                return real(self, batch)
            return step

        # every validation boundary, one step past the first, and one step before it
        for k in sorted({every - 1, every + 1, *range(every, steps, every)}):
            out = tmp_path / f"cut_{k}"
            monkeypatch.setattr(Trainer, "train_step", cut_at(k))
            with pytest.raises(Cut):
                train(out)
            monkeypatch.setattr(Trainer, "train_step", real)
            if k < every:      # no validation yet, so no checkpoint to resume from
                assert not (out / "model.ckpt").exists()
                assert train(out, "--resume") == 2
                continue
            assert train(out, "--resume") == 0
            got = self._outputs(out)
            assert got[0] == want[0], f"model.ckpt after a cut at step {k}"
            assert got[1] == want[1], f"train_log.csv after a cut at step {k}"
            assert got[2] == want[2], f"manifest.json after a cut at step {k}"
        capsys.readouterr()
        assert train(tmp_path / "whole", "--resume", "--seed", "1") == 2
        assert "', 0) != the run's (" in capsys.readouterr().err

    def test_trainer_holds_no_generator(self):
        model, data, _ = _setup(with_comments=True, with_negatives=True, dropout=0.1)
        trainer = Trainer(model, data, TrainConfig(batch_size=8, epochs=1, seed=0,
                                                   use_aspects=True, use_comments=True,
                                                   use_negatives=True))
        trainer.train_step(data.train_pairs[:8])
        assert not [name for name, value in vars(trainer).items()
                    if isinstance(value, np.random.Generator)]


class TestEvalHelpers:
    def test_score_texts_in_order(self):
        model, data, _ = _setup()
        texts = [s.text for s in list(data.stories.values())[:5]]
        scores = score_texts(model, texts)
        assert scores.shape == (5,)
        assert np.array_equal(scores, score_texts(model, texts))
        assert np.all((scores > 0) & (scores < 1))

    def test_pair_scores_score_each_story_once(self, monkeypatch):
        model, data, _ = _setup()
        stories = list(data.stories.values())
        highs = [s for s in stories if s.id.endswith("_hi")][:2]
        lows = [s for s in stories if s.id.endswith("_lo")][:3]
        pairs = [RankedPair(prompt_id="p", high_id=h.id, low_id=lo.id)
                 for h in highs for lo in lows]
        seen = []
        real = model.infer

        def recording(seqs):
            seen.append([tuple(s) for s in seqs])
            return real(seqs)

        monkeypatch.setattr(model, "infer", recording)
        hi, lo = pair_scores(model, data.stories, pairs)
        ids = {s.id: tokenize(s.text, model.vocab, model.config.max_len)
               for s in highs + lows}
        assert len(seen) == 1 and len(seen[0]) == 5
        assert sorted(seen[0]) == sorted(tuple(v) for v in ids.values())
        want_hi = reference_heads(model, [ids[p.high_id] for p in pairs])[0]
        want_lo = reference_heads(model, [ids[p.low_id] for p in pairs])[0]
        assert np.max(np.abs(hi - want_hi)) <= 1e-5
        assert np.max(np.abs(lo - want_lo)) <= 1e-5
        assert evaluate_pairs(model, data.stories, pairs) == np.mean(hi > lo)

    def test_evaluate_pairs_empty(self):
        model, data, _ = _setup()
        with pytest.raises(ContractViolation):
            evaluate_pairs(model, data.stories, [])


class TestOnePassStep:
    @staticmethod
    def _partial_setup():
        """float64 model; negatives for every other low story of the first
        batch and aspect targets for every third of its stories."""
        model, data, _ = _setup(with_comments=True, with_negatives=True,
                                dtype=np.float64)
        batch = data.train_pairs[:8]
        sids = list(dict.fromkeys(sid for p in batch for sid in (p.high_id, p.low_id)))
        data.negatives = {p.low_id: data.negatives[p.low_id] for p in batch[::2]}
        data.comments = {sid: data.comments[sid] for sid in sids[::3]}
        return model, data, batch

    def test_stories_encoded_in_one_pass(self, monkeypatch):
        calls = []
        real = model_mod.encode

        def counting(params, config, ids, lengths, **kw):
            calls.append(ids.shape[0])
            return real(params, config, ids, lengths, **kw)

        monkeypatch.setattr(model_mod, "encode", counting)
        model, data, batch = self._partial_setup()
        n_neg = sum(1 for p in batch if p.low_id in data.negatives)
        assert 0 < n_neg < len(batch)
        for use_comments in (True, False):
            calls.clear()
            cfg = TrainConfig(batch_size=8, epochs=1, seed=0, use_aspects=True,
                              use_comments=use_comments, use_negatives=True)
            row = Trainer(model, data, cfg).train_step(batch)
            assert (row.l_c > 0.0) == use_comments
            assert calls == [2 * len(batch) + n_neg]

    def test_only_steps_that_pick_a_comment_encode_states(self, monkeypatch):
        """Only the comment loss reads token states: a joint step that draws a
        pick encodes in full, and a preference-only step, or a joint step
        whose batch has no commented story, encodes heads-only."""
        model, data, _ = _setup(with_comments=True, with_negatives=True)
        batch = data.train_pairs[:8]
        joint = TrainConfig(batch_size=8, epochs=1, seed=0, use_aspects=True,
                            use_comments=True, use_negatives=True)
        plain = TrainConfig(batch_size=8, epochs=1, seed=0, use_negatives=True)
        rows = []

        def step(cfg):
            rows.append(Trainer(model, data, cfg).train_step(batch))

        assert encode_flags(monkeypatch, lambda: step(joint)) == [True]
        assert encode_flags(monkeypatch, lambda: step(plain)) == [False]
        in_batch = {sid for p in batch for sid in (p.high_id, p.low_id)}
        data.comments = {sid: recs for sid, recs in data.comments.items() if sid not in in_batch}
        assert data.comments
        assert encode_flags(monkeypatch, lambda: step(joint)) == [False]
        assert [row.l_c > 0.0 for row in rows] == [True, False, False]

    def test_shared_row_comment_loss_equals_a_separate_encode(self, monkeypatch):
        """float32, dropout 0: the comment loss read from the step's rows
        equals the loss on an encode of the picked stories alone."""
        model, data, _ = _setup(with_comments=True, with_negatives=True)
        batch = data.train_pairs[:8]
        sids = [p.high_id for p in batch] + [p.low_id for p in batch]
        seen, real = [], Model.encoded_comment_nll

        def spy(self, states, lengths, rows, aspects, comments, **kw):
            got = real(self, states, lengths, rows, aspects, comments, **kw)
            _, alone, alone_lengths = self.encode_stories([trainer._ids[sids[r]] for r in rows])
            want = real(self, alone, alone_lengths, np.arange(len(rows)), aspects, comments)
            seen.append((float(got.data), float(want.data), len(rows), len(lengths)))
            return got

        monkeypatch.setattr(Model, "encoded_comment_nll", spy)
        trainer = Trainer(model, data, TrainConfig(batch_size=8, epochs=1, seed=0,
                                                   use_aspects=True, use_comments=True,
                                                   use_negatives=True))
        row = trainer.train_step(batch)
        [(got, want, n_rows, n_stories)] = seen
        assert model.params["w_out"].dtype == np.float32
        assert n_rows == len(batch) and n_stories > 2 * len(batch)
        assert got == row.l_c
        assert abs(got - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_keep_the_model_dtype(self, dtype):
        """The whole-batch loss is a scalar of the model's dtype, so backward
        runs, and leaves every parameter gradient, in that dtype."""
        model, data, _ = _setup(with_comments=True, with_negatives=True, dtype=dtype)
        cfg = TrainConfig(batch_size=8, epochs=1, seed=0, use_aspects=True,
                          use_comments=True, use_negatives=True)
        Trainer(model, data, cfg).train_step(data.train_pairs[:8])
        assert {p.grad.dtype for p in model.params.values()} == {np.dtype(dtype)}

    def test_freeing_walk_equals_the_retaining_walk(self, monkeypatch):
        """A joint step with dropout 0.1 and negatives leaves every parameter
        the same gradient, to the bit, under either backward walk."""
        cfg = TrainConfig(batch_size=8, epochs=1, seed=0, use_aspects=True,
                          use_comments=True, use_negatives=True)
        runs = []
        for walk in (ad.Tensor.backward, reference_backward):
            monkeypatch.setattr(ad.Tensor, "backward", walk)
            model, data, _ = _setup(with_comments=True, with_negatives=True, dropout=0.1)
            row = Trainer(model, data, cfg).train_step(data.train_pairs[:8])
            runs.append((row, {name: t.grad for name, t in model.params.items()}))
        (row, got), (ref_row, want) = runs
        assert row == ref_row and min(row.l_ps, row.l_ac, row.l_ar, row.l_c) > 0.0
        for name, g in want.items():
            assert got[name].dtype == g.dtype and got[name].tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("objective,use_ps", [("rank", True), ("discrimination", True),
                                                  ("rank", False)])
    def test_equals_three_pass_oracle(self, objective, use_ps):
        cfg = TrainConfig(batch_size=8, epochs=1, seed=0, peak_lr=1e-2,
                          warmup_frac=0.0, objective=objective, use_ps=use_ps,
                          use_aspects=True, use_comments=True, use_negatives=True)
        runs = []
        for step in (Trainer.train_step, reference_train_step):
            model, data, batch = self._partial_setup()
            trainer = Trainer(model, data, cfg)
            start = {n: t.data.copy() for n, t in model.params.items()}
            losses = [step(trainer, batch) for _ in range(2)]
            runs.append((losses, model.params, start))
        (got, params, start), (want, ref_params, _) = runs
        for g, w in zip(got, want):
            assert min(w.l_ps, w.l_ac, w.l_ar, w.l_c) > 0.0
            for name in ("l_ps", "l_ac", "l_ar", "l_c"):
                assert abs(getattr(g, name) - getattr(w, name)) <= 1e-10, name
        for name, t in params.items():
            assert np.max(np.abs(t.data - ref_params[name].data)) <= 1e-10, name
        assert not np.array_equal(params["w_ps"].data, start["w_ps"])


def test_the_model_builds_exactly_the_tape_ops(monkeypatch):
    """A joint step (aspects, comments, negatives, dropout 0.1), a
    discrimination step and a comment search build every op ``autodiff``
    declares and no other."""
    built, real_node = set(), ad._node

    def spy(data, parents, backward, name):
        built.add(name)
        return real_node(data, parents, backward, name)

    monkeypatch.setattr(ad, "_node", spy)
    model, data, _ = _setup(with_comments=True, with_negatives=True, dropout=0.1)
    batch = data.train_pairs[:8]
    for objective in ("rank", "discrimination"):
        cfg = TrainConfig(batch_size=8, epochs=1, seed=0, objective=objective,
                          use_aspects=True, use_comments=True, use_negatives=True)
        Trainer(model, data, cfg).train_step(batch)
    story = tokenize(data.stories[batch[0].high_id].text, model.vocab, model.config.max_len)
    model.generate_comments([story, story], [0, 3], max_new_tokens=3, beam=2)
    assert built == tape_ops()
