"""End-to-end command line tests on tiny corpora."""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy

from storyeval import aspects, cli
from storyeval import model as model_mod
from storyeval.aspects import AspectTaxonomy
from storyeval.checkpoint import load_checkpoint, save_checkpoint
from storyeval.errors import DataError
from storyeval.jsonl import dumps, read_jsonl, write_json, write_jsonl
from storyeval.metrics import MetricReport
from storyeval.model import Model, ModelConfig
from storyeval.synthetic import make_aspect_comments, make_preference_corpus
from storyeval.vocab import Vocabulary, build_vocab, tokenize

from helpers import reference_score

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden" / "prepare"
FIXTURE = DATA / "stories_fixture.jsonl"

PREPARE_FLAGS = ["--min-words", "10", "--max-words", "100",
                 "--ratios", "0.5,0.25,0.25", "--seed", "7"]


def run(argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Shared prepared corpus + one short training run."""
    root = tmp_path_factory.mktemp("smoke")
    stories = make_preference_corpus(n_prompts=16, seed=0)
    write_jsonl(root / "raw.jsonl", [s.to_record() for s in stories])
    comments = make_aspect_comments(stories, seed=0)
    write_jsonl(root / "comments.jsonl", [c.to_record() for c in comments])
    assert run(["prepare-pairs", root / "raw.jsonl", "--out-dir", root / "prep",
                "--min-words", 20, "--max-words", 120]) == 0
    AspectTaxonomy.default().save(root / "taxonomy.json")
    cfg = {
        "seed": 0,
        "model": {"d_model": 24, "window": 8, "max_len": 96},
        "train": {"epochs": 3, "peak_lr": 1e-3, "batch_size": 8,
                  "use_aspects": True, "use_comments": True},
        "data": {"stories": str(root / "prep" / "stories.jsonl"),
                 "pairs_train": str(root / "prep" / "train_pairs.jsonl"),
                 "pairs_val": str(root / "prep" / "val_pairs.jsonl"),
                 "comments": str(root / "comments.jsonl"),
                 "taxonomy": str(root / "taxonomy.json"),
                 "vocab_size": 400},
    }
    (root / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert run(["train", "--config", root / "cfg.json",
                "--out-dir", root / "run"]) == 0
    return root


class TestPrepareGolden:
    FILES = ("stories.jsonl", "train_pairs.jsonl", "val_pairs.jsonl",
             "test_pairs.jsonl", "stats.json")

    def test_byte_identical(self, tmp_path):
        assert run(["prepare-pairs", FIXTURE, "--out-dir", tmp_path,
                    *PREPARE_FLAGS]) == 0
        for name in self.FILES:
            got = (tmp_path / name).read_bytes()
            want = (GOLDEN / name).read_bytes()
            assert got == want, f"{name} drifted from the frozen output"

    def test_pairs_match_brute_force(self, tmp_path):
        run(["prepare-pairs", FIXTURE, "--out-dir", tmp_path, *PREPARE_FLAGS])
        stories = read_jsonl(FIXTURE)
        expected = set()
        by_prompt: dict[str, list[dict]] = {}
        for s in stories:
            by_prompt.setdefault(s["prompt_id"], []).append(s)
        for pid, group in by_prompt.items():
            highs = [s for s in group if s["upvotes"] >= 50]
            lows = [s for s in group if s["upvotes"] <= 0]
            for h in highs:
                for lo in lows:
                    expected.add((pid, h["id"], lo["id"]))
        got = set()
        for name in ("train_pairs", "val_pairs", "test_pairs"):
            for r in read_jsonl(tmp_path / f"{name}.jsonl"):
                if "meta" in r:
                    continue
                got.add((r["prompt_id"], r["high_id"], r["low_id"]))
        assert got == expected

    def test_split_prompts_disjoint_random_fixtures(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(3):
            n_prompts = int(rng.integers(4, 12))
            records = []
            for p in range(n_prompts):
                for s in range(int(rng.integers(2, 5))):
                    up = int(rng.choice([-3, 0, 60, 150]))
                    records.append({
                        "id": f"t{trial}p{p}s{s}", "prompt_id": f"t{trial}p{p}",
                        "prompt": "x", "upvotes": up, "created_at": "2019-01-01",
                        "text": " ".join(f"w{i}" for i in range(30))})
            src = tmp_path / f"fix{trial}.jsonl"
            write_jsonl(src, records)
            out = tmp_path / f"out{trial}"
            code = run(["prepare-pairs", src, "--out-dir", out,
                        "--min-words", 10, "--max-words", 50,
                        "--seed", trial])
            if code == cli.EXIT_DATA:
                continue
            prompts = {}
            for name in ("train", "val", "test"):
                prompts[name] = {r["prompt_id"]
                                 for r in read_jsonl(out / f"{name}_pairs.jsonl")
                                 if "meta" not in r}
            assert not prompts["train"] & prompts["val"]
            assert not prompts["train"] & prompts["test"]
            assert not prompts["val"] & prompts["test"]

    def test_no_pairs_is_data_error(self, tmp_path):
        assert run(["prepare-pairs", FIXTURE, "--out-dir", tmp_path,
                    "--min-words", 5000, "--max-words", 6000]) == cli.EXIT_DATA


class TestMakeNegatives:
    def test_deterministic_and_tagged(self, tmp_path):
        for name in ("a.jsonl", "b.jsonl"):
            assert run(["make-negatives", GOLDEN / "stories.jsonl",
                        "--out", tmp_path / name, "--seed", 5]) == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        records = read_jsonl(tmp_path / "a.jsonl")
        assert "meta" in records[0] and "config_hash" in records[0]["meta"]
        kinds = {r["kind"] for r in records[1:]}
        assert kinds == {"shuffle", "repeat", "substitute"}

    def test_unknown_kind_is_config_error(self, tmp_path):
        assert run(["make-negatives", GOLDEN / "stories.jsonl",
                    "--out", tmp_path / "x.jsonl",
                    "--kinds", "bogus"]) == cli.EXIT_CONFIG


class TestExtractAspects:
    def test_fixed_topic_count(self, smoke, tmp_path):
        assert run(["extract-aspects", smoke / "comments.jsonl",
                    "--out-dir", tmp_path, "--topics", 2,
                    "--iterations", 60]) == 0
        report = json.loads((tmp_path / "topics.json").read_text())
        assert report["n_topics"] == 2
        assert set(report["top_words"]) == {"0", "1"}
        assert "config_hash" in report["meta"]
        taxonomy = AspectTaxonomy.load(tmp_path / "taxonomy.json")
        assert len(taxonomy) == 2

    def test_candidates_fit_each_count_once(self, smoke, tmp_path, monkeypatch):
        fits = []
        real = aspects.lda_fit

        def counting(docs, vocab, n_topics, **kw):
            fits.append(n_topics)
            return real(docs, vocab, n_topics, **kw)

        monkeypatch.setattr(aspects, "lda_fit", counting)
        assert run(["extract-aspects", smoke / "comments.jsonl",
                    "--out-dir", tmp_path, "--candidates", "2,3",
                    "--iterations", 5]) == 0
        assert fits == [2, 3]
        report = json.loads((tmp_path / "topics.json").read_text())
        assert report["n_topics"] in (2, 3)

    def test_fixed_topic_count_is_the_single_candidate(self, smoke, tmp_path, monkeypatch):
        fits, scored = [], []
        real_fit, real_score = aspects.lda_fit, aspects.umass_coherence
        monkeypatch.setattr(aspects, "lda_fit",
                            lambda *a, **kw: fits.append(a[2]) or real_fit(*a, **kw))
        monkeypatch.setattr(aspects, "umass_coherence",
                            lambda *a, **kw: scored.append(1) or real_score(*a, **kw))
        outs = [tmp_path / "topics", tmp_path / "candidates"]
        for out, flags in zip(outs, (["--topics", 3], ["--candidates", "3"])):
            assert run(["extract-aspects", smoke / "comments.jsonl", "--out-dir", out,
                        "--iterations", 5, *flags]) == 0
        assert fits == [3, 3] and not scored
        for name in ("topics.json", "taxonomy.json"):
            reports = [json.loads((out / name).read_text()) for out in outs]
            for r in reports:
                r.pop("meta")
            assert reports[0] == reports[1]

    def test_empty_comments_is_data_error(self, tmp_path):
        write_jsonl(tmp_path / "c.jsonl", [{"text": "a 1 2 3"}])
        assert run(["extract-aspects", tmp_path / "c.jsonl",
                    "--out-dir", tmp_path,
                    "--topics", 2]) == cli.EXIT_DATA


def full_crowd(smoke) -> list[dict]:
    """The smoke comments plus rating-0.5 ones: the scorer needs all five
    rating levels in its training data."""
    return read_jsonl(smoke / "comments.jsonl") + [
        {"story_id": "p0000_hi", "aspect": 2, "rating": 0.5, "source": "crowd",
         "text": f"the ending felt plain and vague overall take {i}"} for i in range(4)]


class TestAugment:
    def test_end_to_end(self, smoke, tmp_path):
        crowd = full_crowd(smoke)
        write_jsonl(tmp_path / "crowd.jsonl", crowd)
        write_jsonl(tmp_path / "raw.jsonl",
                    [{"text": r["text"] + " honestly"} for r in crowd[:12]]
                    + [{"text": "too short"}])
        assert run(["augment-comments", "--crowd", tmp_path / "crowd.jsonl",
                    "--raw", tmp_path / "raw.jsonl", "--out-dir", tmp_path,
                    "--min-words", 5, "--max-words", 30,
                    "--confidence", 0.4, "--epochs", 8]) == 0
        audit = json.loads((tmp_path / "audit.json").read_text())
        assert audit["total"] == 13
        assert audit["rejected_length"] >= 1
        kept = [r for r in read_jsonl(tmp_path / "augmented.jsonl")
                if "meta" not in r]
        assert audit["kept"] == len(kept)
        for r in kept:
            assert r["source"] == "augmented"
            assert 0.0 <= r["rating"] <= 1.0

    @pytest.mark.parametrize("fault,message", [
        ("off_grid", ":2: rating 0.3 is not on the 1..5 grid"),
        ("no_sentiment_class_3", ": need >= 1 examples per class, got [18, 14, 0, 18, 14]"),
        ("no_aspect_10", ": need >= 1 examples per class, got ["),
    ])
    def test_crowd_faults_are_data_errors_naming_the_file(self, smoke, tmp_path, capsys,
                                                          fault, message):
        crowd, flags = full_crowd(smoke), []
        if fault == "off_grid":
            crowd[1]["rating"] = 0.3
        elif fault == "no_sentiment_class_3":
            crowd = [r for r in crowd if r["rating"] != 0.5]
        else:
            flags = ["--n-aspects", 11]
        write_jsonl(tmp_path / "crowd.jsonl", crowd)
        assert run(["augment-comments", "--crowd", tmp_path / "crowd.jsonl",
                    "--raw", smoke / "comments.jsonl", "--out-dir", tmp_path / "out",
                    "--epochs", 1, *flags]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {tmp_path / 'crowd.jsonl'}{message}" in err
        assert "Traceback" not in err


class TestBlankText:
    """A text of whitespace alone, in any input whose texts are tokenized,
    exits 3 naming its file and line, never with a traceback."""

    @pytest.mark.parametrize("command", ["compare a", "compare b", "evaluate judgments",
                                         "train negatives", "train comments",
                                         "augment-comments --raw", "augment-comments --crowd"])
    def test_exits_3_naming_the_line(self, smoke, tmp_path, capsys, command):
        stories = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                   if "meta" not in r]
        model = ["--checkpoint", smoke / "run" / "model.ckpt",
                 "--vocab", smoke / "run" / "vocab.txt"]
        bad, good = tmp_path / "bad.jsonl", tmp_path / "good.jsonl"
        if command.startswith("compare"):
            records = [{"prompt_id": s["prompt_id"], "text": s["text"]}
                       for s in stories if s["id"].endswith("_hi")][:2]
            write_jsonl(good, records)
            argv = ["compare", *((bad, good) if command.endswith("a") else (good, bad)), *model]
        elif command == "evaluate judgments":
            records = [{"text": f"story number {i}", "human": float(i)} for i in range(6)]
            write_json(tmp_path / "spec.json", {"judgments": str(bad)})
            argv = ["evaluate", tmp_path / "spec.json", *model]
        elif command.startswith("train"):
            records = ([{"source_story_id": s["id"], "text": s["text"]} for s in stories[:2]]
                       if command.endswith("negatives")
                       else read_jsonl(smoke / "comments.jsonl")[:2])
            argv = ["train", "--config", smoke / "cfg.json",
                    "--set", f"data.{command.split()[1]}={bad}", "--out-dir", tmp_path / "run"]
        else:
            records = [r for r in read_jsonl(smoke / "comments.jsonl")][:2]
            files = {"--crowd": smoke / "comments.jsonl", "--raw": smoke / "comments.jsonl",
                     command.split()[1]: bad}
            argv = ["augment-comments", *[x for kv in files.items() for x in kv],
                    "--min-words", 0, "--out-dir", tmp_path / "out"]
        records[1]["text"] = " \t "
        write_jsonl(bad, records)
        assert run(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {bad}:2: text is empty after normalization" in err
        assert "Traceback" not in err


class TestTrain:
    def test_train_returns_the_trainer_the_manifest_reads(self, smoke, tmp_path, monkeypatch):
        runs, real = [], cli.Trainer.train

        def spy(self, *args, **kw):
            runs.append((self, real(self, *args, **kw)))
            return runs[-1][1]

        monkeypatch.setattr(cli.Trainer, "train", spy)
        assert run(["train", "--config", smoke / "cfg.json", "--out-dir", tmp_path]) == 0
        [(trainer, returned)] = runs
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert returned is trainer and manifest["steps"] == len(trainer.rows)
        assert (manifest["final_val_acc"], manifest["best_val_acc"], manifest["best_step"]) \
            == (trainer.final_val_acc, trainer.best_val_acc, trainer.best_step)

    def test_artifacts(self, smoke):
        run_dir = smoke / "run"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["meta"]["seed"] == 0
        assert set(manifest["files"]) == {"model.ckpt", "train_log.csv",
                                          "vocab.txt"}
        log = (run_dir / "train_log.csv").read_text().splitlines()
        assert log[0].startswith("# config_hash=")
        assert log[1] == "step,lr,L_ps,L_ac,L_ar,L_c,L_total"
        assert len(log) == 2 + manifest["steps"]

    def test_same_seed_runs_identical(self, smoke, tmp_path):
        outs, manifests = [], []
        for name in ("r1", "r2"):
            assert run(["train", "--config", smoke / "cfg.json",
                        "--out-dir", tmp_path / name]) == 0
            outs.append((tmp_path / name / "train_log.csv").read_bytes())
            manifests.append(json.loads((tmp_path / name / "manifest.json").read_text()))
        assert outs[0] == outs[1]
        # the environment block sits beside, not inside, what the hashes cover
        first, second = manifests
        assert first["files"] == second["files"]
        assert first["meta"]["config_hash"] == second["meta"]["config_hash"]
        assert "environment" not in first["config"]
        env = first["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "blas_threads", "cpu_count"}
        assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS"}
        assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
        assert env["scipy"] == scipy.__version__

    def test_seed_override_changes_log(self, smoke, tmp_path):
        assert run(["train", "--config", smoke / "cfg.json", "--seed", 9,
                    "--out-dir", tmp_path / "r"]) == 0
        other = (tmp_path / "r" / "train_log.csv").read_text().splitlines()
        base = (smoke / "run" / "train_log.csv").read_text().splitlines()
        assert other[2:] != base[2:]

    def test_missing_data_is_config_error(self, tmp_path):
        assert run(["train", "--out-dir", tmp_path]) == cli.EXIT_CONFIG

    def test_unknown_override_is_config_error(self, smoke, tmp_path):
        assert run(["train", "--config", smoke / "cfg.json",
                    "--set", "train.nope=1",
                    "--out-dir", tmp_path]) == cli.EXIT_CONFIG

    def test_comments_without_taxonomy_is_config_error(self, smoke, tmp_path):
        assert run(["train", "--config", smoke / "cfg.json",
                    "--set", "data.taxonomy=null",
                    "--out-dir", tmp_path]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("key,fault", [("pairs_train", "unknown_id"),
                                           ("pairs_val", "unknown_id"), ("stories", "empty"),
                                           ("pairs_train", "empty"), ("pairs_val", "empty")])
    def test_pair_and_story_faults_name_the_file(self, smoke, tmp_path, capsys, key, fault):
        bad = tmp_path / f"{key}.jsonl"
        if fault == "empty":
            bad.write_text("", encoding="utf-8")
            message = f"{bad}: no records"
        else:
            pairs = read_jsonl(smoke / "prep" / f"{key[len('pairs_'):]}_pairs.jsonl")
            pairs[-1] = {**pairs[-1], "low_id": "nope"}
            write_jsonl(bad, pairs)
            message = f"{bad}: unknown story id 'nope'"
        assert run(["train", "--config", smoke / "cfg.json", "--set", f"data.{key}={bad}",
                    "--out-dir", tmp_path / "run"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "augment-comments"])
    @pytest.mark.parametrize("aspect", [-1, 10])
    def test_comment_aspect_out_of_range_is_data_error(self, smoke, tmp_path, capsys,
                                                       command, aspect):
        bad = tmp_path / "comments.jsonl"
        records = [r for r in read_jsonl(smoke / "comments.jsonl")][:2]
        records[1]["aspect"] = aspect
        write_jsonl(bad, records)
        if command == "train":
            # no taxonomy: the range check must not depend on one
            argv = ["train", "--config", smoke / "cfg.json", "--set", "data.taxonomy=null",
                    "--set", "train.use_comments=false", "--set", f"data.comments={bad}",
                    "--out-dir", tmp_path / "run"]
        else:
            argv = ["augment-comments", "--crowd", bad, "--raw", smoke / "comments.jsonl",
                    "--out-dir", tmp_path / "out"]
        assert run(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}: aspect id {aspect} outside [0, 10)" in err
        assert "Traceback" not in err


class TestScore:
    def test_records_and_error_continuation(self, smoke, tmp_path):
        stories = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                   if "meta" not in r][:4]
        stories.insert(2, {"id": "broken", "text": ""})
        stories.append({"id": "numeric", "text": 5})
        write_jsonl(tmp_path / "stories.jsonl", stories)
        assert run(["score", "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt",
                    "--stories", tmp_path / "stories.jsonl",
                    "--out", tmp_path / "scores.jsonl",
                    "--top-aspects", 2, "--max-new-tokens", 6]) == 0
        records = read_jsonl(tmp_path / "scores.jsonl")
        assert records[0]["meta"]["failures"] == 2
        body = records[1:]
        assert len(body) == 6
        assert body[2]["id"] == "broken" and "error" in body[2]
        assert body[5]["error"] == "DataError: field 'text' must be str, got int"
        for rec in body:
            if "error" in rec:
                continue
            assert 0.0 <= rec["p_s"] <= 1.0
            assert len(rec["a_c"]) == 10 and len(rec["a_r"]) == 10
            assert abs(sum(rec["a_c"]) - 1.0) < 1e-5
            assert len(rec["comments"]) == 2

    def test_zero_top_aspects_scores_without_comments(self, smoke, tmp_path):
        stories = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                   if "meta" not in r][:3]
        write_jsonl(tmp_path / "stories.jsonl", stories)
        assert run(["score", "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt",
                    "--stories", tmp_path / "stories.jsonl",
                    "--out", tmp_path / "scores.jsonl", "--top-aspects", 0]) == 0
        records = read_jsonl(tmp_path / "scores.jsonl")
        assert records[0]["meta"]["failures"] == 0 and len(records) == 4
        for rec in records[1:]:
            assert 0.0 <= rec["p_s"] <= 1.0
            assert rec["comments"] == {}


def score_inputs(smoke, tmp_path, n: int = 6) -> tuple[Path, list[dict]]:
    """``n`` prepared stories with the second one given again under a new id and
    an empty one among them, as a ``score`` input file, and its records."""
    stories = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl") if "meta" not in r][:n]
    stories.insert(3, {**stories[1], "id": "again"})
    stories.insert(2, {"id": "broken", "text": ""})
    write_jsonl(tmp_path / "stories.jsonl", stories)
    return tmp_path / "stories.jsonl", stories


def score_argv(smoke, tmp_path, stories, *flags) -> list:
    return ["score", "--checkpoint", smoke / "run" / "model.ckpt",
            "--vocab", smoke / "run" / "vocab.txt", "--stories", stories,
            "--out", tmp_path / "scores.jsonl", *flags]


def small_budgets(monkeypatch, infer: int, decode: int) -> None:
    """Token budgets small enough that the smoke stories (at most 96 tokens)
    fall into several groups and chunks."""
    for module in (model_mod, cli):
        monkeypatch.setattr(module, "INFER_TOKENS", infer)
        monkeypatch.setattr(module, "DECODE_TOKENS", decode)


class TestScoreWalk:
    """``score`` walks ``Model.encoded`` once: each distinct story is encoded
    once, its heads choose the aspects, and its states decode their comments."""

    @pytest.mark.parametrize("small", [False, True], ids=["default_budgets", "small_budgets"])
    @pytest.mark.parametrize("beam", [1, 2])
    def test_records_equal_the_two_call_oracle(self, smoke, tmp_path, monkeypatch, beam, small):
        path, stories = score_inputs(smoke, tmp_path)
        if small:
            small_budgets(monkeypatch, 150, 400)
        encoded, real_encode = [], Model.encode_stories

        def encode_spy(model, id_seqs, rng=None):
            encoded.extend(s.tobytes() for s in id_seqs)
            return real_encode(model, id_seqs, rng=rng)

        monkeypatch.setattr(Model, "encode_stories", encode_spy)
        # the comments hold their ids, so the records show them exactly
        monkeypatch.setattr(Vocabulary, "decode", lambda vocab, ids: " ".join(map(str, ids)))
        assert run(score_argv(smoke, tmp_path, path, "--top-aspects", 2,
                              "--max-new-tokens", 6, "--beam", beam)) == 0
        monkeypatch.setattr(Model, "encode_stories", real_encode)
        body = read_jsonl(tmp_path / "scores.jsonl")[1:]
        assert [r["id"] for r in body] == [r["id"] for r in stories]
        model = cli._load_model(smoke / "run" / "model.ckpt", smoke / "run" / "vocab.txt")
        seqs = [tokenize(r["text"], model.vocab, model.config.max_len)
                for r in stories if r["text"]]
        assert len({s.tobytes() for s in seqs}) == len(seqs) - 1
        # one encode per distinct story: its copies share a group here
        assert sorted(encoded) == sorted({s.tobytes() for s in seqs})
        want = reference_score(model, seqs, 2, 6, beam)
        got = [r for r in body if "error" not in r]
        assert len(got) == len(want) == len(seqs)
        for rec, ref in zip(got, want):
            for head in ("p_s", "a_c", "a_r"):
                assert np.max(np.abs(np.asarray(rec[head]) - ref[head])) <= 1e-5
            assert rec["comments"] == {k: " ".join(map(str, ids))
                                       for k, ids in ref["comments"].items()}
            assert len(rec["comments"]) == 2

    def test_zero_top_aspects_walks_infer_groups_and_decodes_nothing(
            self, smoke, tmp_path, monkeypatch):
        path, _ = score_inputs(smoke, tmp_path)
        small_budgets(monkeypatch, 150, 400)
        chunks, groups, encoded, decoded = [], [], set(), []
        real_encode, real_search, real_logits = (Model.encode_stories, Model.search,
                                                 model_mod.decoder_logits)

        def encode_spy(model, id_seqs, rng=None):
            chunks.append((len(id_seqs), max(len(s) for s in id_seqs)))
            encoded.update(s.tobytes() for s in id_seqs)
            return real_encode(model, id_seqs, rng=rng)

        def search_spy(model, states, lengths, picks, *args):
            groups.append((len(lengths), lengths.max(), len(picks)))
            return real_search(model, states, lengths, picks, *args)

        def logits_spy(*args, **kwargs):
            decoded.append(args)
            return real_logits(*args, **kwargs)

        monkeypatch.setattr(Model, "encode_stories", encode_spy)
        monkeypatch.setattr(Model, "search", search_spy)
        monkeypatch.setattr(model_mod, "decoder_logits", logits_spy)
        assert run(score_argv(smoke, tmp_path, path, "--top-aspects", 0)) == 0
        # groups of INFER_TOKENS: each one chunk, as in Model.infer
        assert all(rows * t <= 150 or rows == 1 for rows, t in chunks)
        assert [(rows, t) for rows, t, _ in groups] == chunks
        assert len(chunks) > 1 and max(rows for rows, _ in chunks) > 1
        assert len(encoded) == 6 and not decoded and not any(pairs for *_, pairs in groups)
        body = read_jsonl(tmp_path / "scores.jsonl")[1:]
        assert all(r["comments"] == {} for r in body if "error" not in r)

    def test_three_aspects_decode_within_decode_tokens(self, smoke, tmp_path, monkeypatch):
        path, _ = score_inputs(smoke, tmp_path)
        small_budgets(monkeypatch, 150, 450)
        batches, real_search = [], Model.search

        def search_spy(model, states, lengths, picks, aspect_ks, *args):
            batches.append((len(picks), lengths[picks].max(), len(set(picks.tolist()))))
            return real_search(model, states, lengths, picks, aspect_ks, *args)

        monkeypatch.setattr(Model, "search", search_spy)
        assert run(score_argv(smoke, tmp_path, path, "--top-aspects", 3,
                              "--max-new-tokens", 4)) == 0
        # a decode batch's (story, aspect) pairs times its longest story fit
        # DECODE_TOKENS, unless it reads one story, longer than DECODE_TOKENS // 3
        assert all(pairs * t <= 450 or stories == 1 for pairs, t, stories in batches)
        assert len(batches) > 1 and max(stories for _, _, stories in batches) > 1
        assert sum(pairs for pairs, _, _ in batches) == 3 * 7
        body = read_jsonl(tmp_path / "scores.jsonl")[1:]
        assert all(len(r["comments"]) == 3 for r in body if "error" not in r)

    def test_every_record_failing_exits_0_with_error_records(self, smoke, tmp_path):
        write_jsonl(tmp_path / "stories.jsonl", [{"id": "empty", "text": ""},
                                                 {"id": "numeric", "text": 5}, {"id": "none"}])
        assert run(score_argv(smoke, tmp_path, tmp_path / "stories.jsonl",
                              "--top-aspects", 2)) == 0
        records = read_jsonl(tmp_path / "scores.jsonl")
        assert records[0]["meta"]["failures"] == 3
        assert [sorted(r) for r in records[1:]] == [["error", "id"]] * 3


class TestCompare:
    def _sides(self, smoke, tmp_path):
        stories = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                   if "meta" not in r]
        a = [{"prompt_id": r["prompt_id"], "text": r["text"]}
             for r in stories if r["id"].endswith("_hi")]
        b = [{"prompt_id": r["prompt_id"], "text": r["text"]}
             for r in stories if r["id"].endswith("_lo")]
        write_jsonl(tmp_path / "a.jsonl", a)
        write_jsonl(tmp_path / "b.jsonl", b)
        return tmp_path / "a.jsonl", tmp_path / "b.jsonl"

    def test_self_comparison_is_all_ties(self, smoke, tmp_path):
        a, _ = self._sides(smoke, tmp_path)
        assert run(["compare", a, a,
                    "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt",
                    "--out", tmp_path / "r.json"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["a_wins"] == 0 and report["b_wins"] == 0
        assert report["ties"] == report["n_shared_prompts"]
        assert report["preferred"] == "tie"

    def test_two_sides(self, smoke, tmp_path):
        a, b = self._sides(smoke, tmp_path)
        assert run(["compare", a, b,
                    "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt",
                    "--out", tmp_path / "r.json"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        total = report["a_wins"] + report["b_wins"] + report["ties"]
        assert total == report["n_shared_prompts"] > 0

    def test_no_shared_prompts_is_data_error(self, smoke, tmp_path):
        a, _ = self._sides(smoke, tmp_path)
        write_jsonl(tmp_path / "c.jsonl", [{"prompt_id": "zzz", "text": "w " * 30}])
        assert run(["compare", a, tmp_path / "c.jsonl",
                    "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt"]) == cli.EXIT_DATA


class TestEvaluate:
    def test_partial_spec_reports_only_ranking(self, smoke, tmp_path):
        spec = {"stories": str(smoke / "prep" / "stories.jsonl"),
                "pairs": str(smoke / "prep" / "val_pairs.jsonl")}
        write_json(tmp_path / "spec.json", spec)
        assert run(["evaluate", tmp_path / "spec.json",
                    "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt",
                    "--out", tmp_path / "report.json"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "acc" in report and "dis" in report
        assert "rho" not in report and "bleu" not in report
        assert "config_hash" in report["meta"]

    def test_missing_counterpart_listed_as_skipped(self, smoke, tmp_path):
        stories = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                   if "meta" not in r]
        annos = [{"story_id": stories[0]["id"], "aspects": [0, 3]}]
        write_jsonl(tmp_path / "annos.jsonl", annos)
        write_json(tmp_path / "spec.json",
                   {"aspect_annotations": str(tmp_path / "annos.jsonl")})
        assert run(["evaluate", tmp_path / "spec.json",
                    "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt",
                    "--out", tmp_path / "report.json"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("aspect" in s for s in report["skipped"])

    def test_full_spec(self, smoke, tmp_path, monkeypatch):
        stories = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                   if "meta" not in r]
        judgments = [{"text": r["text"],
                      "human": 1.0 if r["id"].endswith("_hi") else 0.0}
                     for r in stories[:10]]
        write_jsonl(tmp_path / "judg.jsonl", judgments)
        comments = [r for r in read_jsonl(smoke / "comments.jsonl")
                    if "meta" not in r]
        annos = {}
        for c in comments:
            annos.setdefault(c["story_id"], set()).add(c["aspect"])
        write_jsonl(tmp_path / "annos.jsonl",
                    [{"story_id": s, "aspects": sorted(ks)}
                     for s, ks in sorted(annos.items())][:6])
        write_jsonl(tmp_path / "refs.jsonl",
                    [{"story_id": c["story_id"], "aspect": c["aspect"],
                      "text": c["text"]} for c in comments[:6]])
        write_json(tmp_path / "spec.json", {
            "stories": str(smoke / "prep" / "stories.jsonl"),
            "pairs": str(smoke / "prep" / "val_pairs.jsonl"),
            "judgments": str(tmp_path / "judg.jsonl"),
            "aspect_annotations": str(tmp_path / "annos.jsonl"),
            "comment_references": str(tmp_path / "refs.jsonl"),
            "recall_ks": [1, 3],
            "n_permutations": 100,
        })
        built = []

        class Recorded(MetricReport):
            def __post_init__(self):
                built.append(self.to_dict())    # the values it was built with
                super().__post_init__()

        monkeypatch.setattr(cli, "MetricReport", Recorded)
        assert run(["evaluate", tmp_path / "spec.json",
                    "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt",
                    "--out", tmp_path / "report.json",
                    "--max-new-tokens", 6]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for key in ("acc", "dis", "rho", "rho_p", "tau", "tau_p",
                    "recall@1", "recall@3", "bleu", "rouge_l", "ppl"):
            assert key in report, key
        assert report["ppl"] > 1.0
        # one report, built with every value, so its range checks see them all
        assert built == [{k: v for k, v in report.items() if k != "meta"}]

    def test_default_recall_ks_stop_at_the_aspect_count(self, tmp_path):
        # recall@5 is undefined for 3 aspects: the default reports @1 and @3
        stories = make_preference_corpus(n_prompts=2, seed=0)
        write_jsonl(tmp_path / "stories.jsonl", [s.to_record() for s in stories])
        vocab = build_vocab([s.text for s in stories], size=200, n_aspects=3)
        vocab.save(tmp_path / "vocab.txt")
        cfg = ModelConfig(vocab_size=len(vocab), d_model=16, n_enc_layers=1, n_dec_layers=1,
                          n_heads=2, window=8, max_len=64, n_aspects=3)
        save_checkpoint(tmp_path / "m.ckpt", Model(cfg, vocab).params, cfg, seed=0)
        write_jsonl(tmp_path / "ann.jsonl", [{"story_id": stories[0].id, "aspects": [0]}])
        write_json(tmp_path / "spec.json", {"stories": str(tmp_path / "stories.jsonl"),
                                            "aspect_annotations": str(tmp_path / "ann.jsonl")})
        assert run(["evaluate", tmp_path / "spec.json", "--checkpoint", tmp_path / "m.ckpt",
                    "--vocab", tmp_path / "vocab.txt", "--out", tmp_path / "r.json"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert "recall@1" in report and "recall@3" in report and "recall@5" not in report

    def test_empty_generation_scores_zero_overlap(self, smoke, tmp_path):
        # every decoder state becomes the all-ones vector and only <eos>
        # reads it, so greedy decoding stops before the first word
        ck = load_checkpoint(smoke / "run" / "model.ckpt")
        eos = Vocabulary.load(smoke / "run" / "vocab.txt").eos_id
        ck.params["dec_ln.g"].data[:] = 0.0
        ck.params["dec_ln.b"].data[:] = 1.0
        ck.params["w_out"].data[:] = 0.0
        ck.params["w_out"].data[:, eos] = 1.0
        save_checkpoint(tmp_path / "eos.ckpt", ck.params, ck.config,
                        seed=ck.seed, step=ck.step)
        comments = [r for r in read_jsonl(smoke / "comments.jsonl")
                    if "meta" not in r][:4]
        write_jsonl(tmp_path / "refs.jsonl",
                    [{"story_id": c["story_id"], "aspect": c["aspect"],
                      "text": c["text"]} for c in comments])
        write_json(tmp_path / "spec.json", {
            "stories": str(smoke / "prep" / "stories.jsonl"),
            "comment_references": str(tmp_path / "refs.jsonl")})
        assert run(["evaluate", tmp_path / "spec.json",
                    "--checkpoint", tmp_path / "eos.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt",
                    "--out", tmp_path / "report.json"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["bleu"] == report["rouge_l"] == 0.0
        assert np.isfinite(report["ppl"])

    def test_references_tokenized_like_the_vocabulary(self, smoke, tmp_path):
        # case and spacing before punctuation are lost by ``words``, so both
        # spellings of each reference must score the same
        comment = [r for r in read_jsonl(smoke / "comments.jsonl")][0]
        raw = ["The ending felt rushed.", comment["text"].capitalize() + "."]
        plain = ["the ending felt rushed .", comment["text"] + " ."]
        reports = []
        for name, texts in (("raw", raw), ("plain", plain)):
            write_jsonl(tmp_path / f"{name}.jsonl",
                        [{"story_id": comment["story_id"], "aspect": k, "text": t}
                         for k, t in zip((comment["aspect"], 0), texts)])
            write_json(tmp_path / "spec.json", {
                "stories": str(smoke / "prep" / "stories.jsonl"),
                "comment_references": str(tmp_path / f"{name}.jsonl")})
            assert run(["evaluate", tmp_path / "spec.json",
                        "--checkpoint", smoke / "run" / "model.ckpt",
                        "--vocab", smoke / "run" / "vocab.txt",
                        "--out", tmp_path / f"{name}_report.json",
                        "--max-new-tokens", 6]) == 0
            reports.append(json.loads((tmp_path / f"{name}_report.json").read_text()))
        for key in ("bleu", "rouge_l", "ppl"):
            assert reports[0][key] == reports[1][key], key

    @pytest.mark.parametrize("section", ["pairs", "aspect_annotations",
                                         "comment_references"])
    def test_unknown_story_id_is_data_error(self, smoke, tmp_path, capsys,
                                            section):
        known = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                 if "meta" not in r][0]["id"]
        record = {"pairs": {"prompt_id": "p", "high_id": known, "low_id": "nope"},
                  "aspect_annotations": {"story_id": "nope", "aspects": [0]},
                  "comment_references": {"story_id": "nope", "aspect": 0,
                                         "text": "a fine ending"}}[section]
        write_jsonl(tmp_path / "recs.jsonl", [record])
        write_json(tmp_path / "spec.json", {
            "stories": str(smoke / "prep" / "stories.jsonl"),
            section: str(tmp_path / "recs.jsonl")})
        assert run(["evaluate", tmp_path / "spec.json",
                    "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{tmp_path / 'recs.jsonl'}: unknown story id 'nope'" in err

    @pytest.mark.parametrize("section,records,message", [
        ("aspect_annotations", [], "no records"),
        ("comment_references", [], "no records"),
        ("comment_references", [{"aspect": 0, "text": " "}],
         "empty reference text for story"),
        ("pairs", [], "no records"),
        ("judgments", [{"text": f"story number {i}", "human": float(i)}
                       for i in range(4)], "4 judged records"),
        ("judgments", [{"text": f"story number {i}", "human": 1.0}
                       for i in range(5)], "zero variance input"),
        ("aspect_annotations", [{"aspects": []}], "empty aspects list"),
        ("aspect_annotations", [{"aspects": [0, 10]}], "aspect id 10 outside [0, 10)"),
        ("comment_references", [{"aspect": 10, "text": "a fine ending"}],
         "aspect id 10 outside [0, 10)"),
        ("comment_references", [{"aspect": 0, "text": "word " * 96}],
         "reference text for story"),
        ("judgments", [{"text": f"story number {i}", "human": float(i) if i else float("nan")}
                       for i in range(6)], "non-finite input"),
    ])
    def test_empty_evaluation_input_is_data_error(self, smoke, tmp_path, capsys,
                                                  section, records, message):
        known = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                 if "meta" not in r][0]["id"]
        write_jsonl(tmp_path / "recs.jsonl", [{"story_id": known, **r} for r in records])
        write_json(tmp_path / "spec.json", {
            "stories": str(smoke / "prep" / "stories.jsonl"),
            section: str(tmp_path / "recs.jsonl")})
        assert run(["evaluate", tmp_path / "spec.json",
                    "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt"]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{tmp_path / 'recs.jsonl'}: {message}" in err
        assert "Traceback" not in err

    def test_reference_longer_than_the_decoder_is_data_error(self, smoke, tmp_path,
                                                            capsys, monkeypatch):
        """The decoder reads <aspect_k> and the words, so max_len (96) allows 95
        words: 95 score, and 96 are refused while the references are read,
        before any story is encoded, naming the file, the story and the aspect."""
        known = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                 if "meta" not in r][0]["id"]
        encoded, real_encode = [], Model.encode_stories

        def encode_spy(model, id_seqs, rng=None):
            encoded.append(len(id_seqs))
            return real_encode(model, id_seqs, rng=rng)

        monkeypatch.setattr(Model, "encode_stories", encode_spy)
        codes = []
        for n in (95, 96):
            write_jsonl(tmp_path / "refs.jsonl",
                        [{"story_id": known, "aspect": 2, "text": "word " * n}])
            write_json(tmp_path / "spec.json", {
                "stories": str(smoke / "prep" / "stories.jsonl"),
                "comment_references": str(tmp_path / "refs.jsonl")})
            encoded.clear()
            codes.append(run(["evaluate", tmp_path / "spec.json",
                              "--checkpoint", smoke / "run" / "model.ckpt",
                              "--vocab", smoke / "run" / "vocab.txt",
                              "--max-new-tokens", 2]))
        assert codes == [cli.EXIT_OK, cli.EXIT_DATA] and not encoded
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'refs.jsonl'}: reference text for story '{known}' aspect 2 "
                f"has 96 words, over max_len - 1 = 95") in err
        assert "Traceback" not in err

    def test_perplexity_equals_the_per_reference_oracle(self, smoke, tmp_path, monkeypatch):
        """Two references on one story, walked in two groups of INFER_TOKENS:
        ``ppl`` is exp of their per-reference ``comment_nll`` sums over their
        predicted tokens."""
        comment = [r for r in read_jsonl(smoke / "comments.jsonl")][0]
        refs = [(comment["aspect"], comment["text"]), (0, "the ending felt rushed")]
        write_jsonl(tmp_path / "refs.jsonl", [{"story_id": comment["story_id"], "aspect": k,
                                               "text": t} for k, t in refs])
        write_json(tmp_path / "spec.json", {
            "stories": str(smoke / "prep" / "stories.jsonl"),
            "comment_references": str(tmp_path / "refs.jsonl")})
        model = cli._load_model(smoke / "run" / "model.ckpt", smoke / "run" / "vocab.txt")
        story = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                 if r.get("id") == comment["story_id"]][0]
        ids = tokenize(story["text"], model.vocab, model.config.max_len)
        comments = [model.vocab.comment_ids(t) for _, t in refs]
        total = sum(float(model.comment_nll([ids], [k], [c], "sum").data)
                    for (k, _), c in zip(refs, comments))
        want = np.exp(total / sum(len(c) - 1 for c in comments))
        # a budget of one story's tokens puts each reference in a group of its own
        monkeypatch.setattr(model_mod, "INFER_TOKENS", len(ids))
        groups, real_nll = [], Model.encoded_comment_nll

        def nll_spy(model, states, lengths, picks, *args, **kwargs):
            groups.append(len(picks))
            return real_nll(model, states, lengths, picks, *args, **kwargs)

        monkeypatch.setattr(Model, "encoded_comment_nll", nll_spy)
        assert run(["evaluate", tmp_path / "spec.json",
                    "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt",
                    "--out", tmp_path / "report.json", "--max-new-tokens", 4]) == 0
        assert groups == [1, 1]
        report = json.loads((tmp_path / "report.json").read_text())
        assert abs(report["ppl"] - want) <= 1e-6

    def test_bad_spec_is_config_error(self, smoke, tmp_path):
        (tmp_path / "spec.json").write_text("{not json", encoding="utf-8")
        assert run(["evaluate", tmp_path / "spec.json",
                    "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt"]) == cli.EXIT_CONFIG


# each command that reads JSONL: one such input, as READ_FAULTS names it, and
# the artifact_inputs file whose first line leads the malformed copy
JSONL_INPUTS = {
    "prepare-pairs": ("raw.jsonl", "raw.jsonl"),
    "make-negatives": ("stories.jsonl", "stories.jsonl"),
    "extract-aspects": ("comments.jsonl", "comments.jsonl"),
    "augment-comments": ("crowd.jsonl", "crowd.jsonl"),
    "train": ("data:stories", "stories.jsonl"),
    "score": ("stories.jsonl", "stories.jsonl"),
    "compare": ("a.jsonl", "a.jsonl"),
    "evaluate": ("spec:pairs", "val_pairs.jsonl"),
}


class TestMalformedJsonl:
    """A second line that is not a JSON object, or a last line cut short with
    no newline, exits 3 naming ``path:2``, never with a traceback."""

    @pytest.mark.parametrize("line", ['{"id": "a"', "[1, 2]", "5", None],
                             ids=["bad_json", "array", "number", "truncated"])
    @pytest.mark.parametrize("command", sorted(JSONL_INPUTS))
    def test_exits_with_data_error_naming_the_line(self, smoke, artifact_inputs, tmp_path,
                                                   monkeypatch, capsys, command, line):
        monkeypatch.chdir(artifact_inputs)
        name, source = JSONL_INPUTS[command]
        first = (artifact_inputs / source).read_text(encoding="utf-8").splitlines()[0]
        bad = tmp_path / "bad.jsonl"
        # truncated: one whole record, then half of it with no trailing newline
        bad.write_text(f"{first}\n{first[: len(first) // 2]}" if line is None
                       else f"{first}\n{line}\n", encoding="utf-8")
        assert run(read_fault_argv(smoke, tmp_path, command, name, bad)) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err
        assert "Traceback" not in err


def _corrupt_model_file(smoke, tmp_path, fault) -> tuple[Path, Path, Path]:
    """(checkpoint, vocabulary, the one of them that is bad) for ``fault``."""
    ckpt, vocab = tmp_path / "model.ckpt", tmp_path / "vocab.txt"
    shutil.copy(smoke / "run" / "model.ckpt", ckpt)
    shutil.copy(smoke / "run" / "vocab.txt", vocab)
    if fault.startswith("vocab_"):
        lines = vocab.read_text(encoding="utf-8").splitlines()
        if fault == "vocab_short":          # the last word dropped
            lines = lines[:-1]
        elif fault == "vocab_aspects":      # the last <aspect_k> token renamed
            last = max(i for i, w in enumerate(lines) if w.startswith("<aspect_"))
            lines[last] = "zzzz"
        else:
            lines = ["hello", "world"]
        vocab.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return ckpt, vocab, vocab
    blob = bytearray(ckpt.read_bytes())
    nl = blob.find(b"\n")
    manifest = json.loads(blob[:nl])
    if fault == "flipped_byte":     # in the first parameter array
        blob[nl + 5] ^= 0x01
    else:
        manifest = {
            "v1": lambda m: {**m, "format": "storyeval-checkpoint-v1"},
            "no_config": lambda m: {k: v for k, v in m.items() if k != "config"},
            "unknown_config_key": lambda m: {**m, "config": {**m["config"], "colour": 1}},
            "array_manifest": lambda m: [1],
            "bad_dtype": lambda m: {**m, "arrays": [{**m["arrays"][0], "dtype": "zz"},
                                                    *m["arrays"][1:]]},
            "bad_shape": lambda m: {**m, "arrays": [{**m["arrays"][0], "shape": ["x"]},
                                                    *m["arrays"][1:]]},
        }[fault](manifest)
    ckpt.write_bytes(json.dumps(manifest).encode() + bytes(blob[nl:]))
    return ckpt, vocab, ckpt


class TestCorruptModelFiles:
    """A checkpoint of the old format, of the wrong manifest shape or with
    a damaged array, a vocabulary without its reserved tokens, and one
    that does not fit the checkpoint, exit 3 naming the file, never with a
    traceback."""

    @pytest.mark.parametrize("fault", ["v1", "no_config", "unknown_config_key",
                                       "array_manifest", "bad_dtype", "bad_shape",
                                       "flipped_byte", "vocab_reserved_tokens",
                                       "vocab_short", "vocab_aspects"])
    @pytest.mark.parametrize("command", ["score", "compare", "evaluate"])
    def test_exits_3_naming_the_file(self, smoke, tmp_path, capsys, command, fault):
        ckpt, vocab, bad = _corrupt_model_file(smoke, tmp_path, fault)
        stories = smoke / "prep" / "stories.jsonl"
        inputs = {"score": ["--stories", stories, "--out", tmp_path / "out.jsonl"],
                  "compare": [stories, stories, "--out", tmp_path / "out.json"],
                  "evaluate": [tmp_path / "spec.json"]}[command]
        write_json(tmp_path / "spec.json", {"stories": str(stories)})
        assert run([command, *inputs, "--checkpoint", ckpt, "--vocab", vocab]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(bad) in err
        assert "Traceback" not in err
        if fault == "v1":
            assert "storyeval-checkpoint-v1" in err
        if fault in ("bad_dtype", "bad_shape"):     # the first array, by name
            assert "array param.dec0.cross.wk" in err
        if fault in ("vocab_short", "vocab_aspects"):
            assert str(ckpt) in err


class TestMissingField:
    @pytest.mark.parametrize("command,field", [
        ("extract-aspects", "text"),
        ("augment-comments --raw", "text"),
        ("augment-comments --crowd", "text"),
        ("evaluate pairs", "prompt_id"),
        ("evaluate pairs", "high_id"),
        ("evaluate pairs", "low_id"),
        ("evaluate judgments", "text"),
        ("evaluate judgments", "human"),
    ])
    def test_exits_with_data_error_naming_the_field(self, smoke, tmp_path, capsys,
                                                    command, field):
        stories = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                   if "meta" not in r]
        bad = tmp_path / "recs.jsonl"
        out = ["--out-dir", tmp_path / "out"]
        if command == "extract-aspects":
            records = [{"text": "a vivid world"} for _ in range(2)]
            argv = ["extract-aspects", bad, *out, "--topics", 2]
        elif command.startswith("augment-comments"):
            records = [r for r in read_jsonl(smoke / "comments.jsonl")][:2]
            files = {"--crowd": smoke / "comments.jsonl", "--raw": smoke / "comments.jsonl",
                     command.split()[1]: bad}
            argv = ["augment-comments", *[x for kv in files.items() for x in kv], *out]
        else:
            section = command.split()[1]
            records = ([{"prompt_id": s["prompt_id"], "high_id": s["id"], "low_id": s["id"]}
                        for s in stories[:2]] if section == "pairs" else
                       [{"text": f"story number {i}", "human": float(i)} for i in range(6)])
            write_json(tmp_path / "spec.json", {
                "stories": str(smoke / "prep" / "stories.jsonl"), section: str(bad)})
            argv = ["evaluate", tmp_path / "spec.json",
                    "--checkpoint", smoke / "run" / "model.ckpt",
                    "--vocab", smoke / "run" / "vocab.txt"]
        del records[1][field]
        write_jsonl(bad, records)
        assert run(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:2: missing field '{field}'" in err
        assert "Traceback" not in err


class TestWrongFieldType:
    @pytest.mark.parametrize("command,field,value,kinds", [
        ("extract-aspects", "text", 7, "str, got int"),
        ("augment-comments --raw", "text", ["a", "list"], "str, got list"),
        ("augment-comments --crowd", "text", 7, "str, got int"),
        ("augment-comments --crowd", "aspect", "2", "int, got str"),
        ("augment-comments --crowd", "rating", "0.5", "int or float, got str"),
        ("train comments", "aspect", "2", "int, got str"),
        ("train comments", "aspect", 1.0, "int, got float"),
        ("train comments", "rating", "0.5", "int or float, got str"),
        ("compare", "text", 7, "str, got int"),
        ("compare", "prompt_id", 3, "str, got int"),
        ("evaluate pairs", "high_id", 3, "str, got int"),
        ("evaluate judgments", "text", 7, "str, got int"),
        ("evaluate judgments", "human", "high", "int or float, got str"),
        ("evaluate judgments", "human", True, "int or float, got bool"),
        ("evaluate aspect_annotations", "aspects", "0,3", "list, got str"),
        ("evaluate comment_references", "aspect", "1", "int, got str"),
    ])
    def test_exits_with_data_error_naming_the_field(self, smoke, tmp_path, capsys,
                                                    command, field, value, kinds):
        stories = [r for r in read_jsonl(smoke / "prep" / "stories.jsonl")
                   if "meta" not in r]
        bad = tmp_path / "recs.jsonl"
        out = ["--out-dir", tmp_path / "out"]
        model = ["--checkpoint", smoke / "run" / "model.ckpt",
                 "--vocab", smoke / "run" / "vocab.txt"]
        if command == "extract-aspects":
            records = [{"text": "a vivid world"} for _ in range(2)]
            argv = ["extract-aspects", bad, *out, "--topics", 2]
        elif command.startswith("augment-comments"):
            records = [r for r in read_jsonl(smoke / "comments.jsonl")][:2]
            files = {"--crowd": smoke / "comments.jsonl", "--raw": smoke / "comments.jsonl",
                     command.split()[1]: bad}
            argv = ["augment-comments", *[x for kv in files.items() for x in kv], *out]
        elif command == "train comments":
            records = [r for r in read_jsonl(smoke / "comments.jsonl")][:2]
            argv = ["train", "--config", smoke / "cfg.json", "--set", f"data.comments={bad}",
                    "--out-dir", tmp_path / "run"]
        elif command == "compare":
            records = [{"prompt_id": s["prompt_id"], "text": s["text"]} for s in stories[:2]]
            argv = ["compare", bad, bad, *model]
        else:
            section = command.split()[1]
            records = {
                "pairs": [{"prompt_id": s["prompt_id"], "high_id": s["id"],
                           "low_id": s["id"]} for s in stories[:2]],
                "judgments": [{"text": f"story number {i}", "human": float(i)}
                              for i in range(6)],
                "aspect_annotations": [{"story_id": s["id"], "aspects": [0, 3]}
                                       for s in stories[:2]],
                "comment_references": [{"story_id": s["id"], "aspect": 1,
                                        "text": "a fine ending"} for s in stories[:2]],
            }[section]
            write_json(tmp_path / "spec.json", {
                "stories": str(smoke / "prep" / "stories.jsonl"), section: str(bad)})
            argv = ["evaluate", tmp_path / "spec.json", *model]
        records[1][field] = value
        write_jsonl(bad, records)
        assert run(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:2: field '{field}' must be {kinds}" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("field,value,message", [
        ("rating", 1.5, "rating 1.5 outside [0,1]"),
        ("source", "human", "unknown source 'human'"),
    ])
    @pytest.mark.parametrize("command", ["augment-comments", "train"])
    def test_comment_record_breaking_its_contract(self, smoke, tmp_path, capsys,
                                                  command, field, value, message):
        records = [r for r in read_jsonl(smoke / "comments.jsonl")][:2]
        records[1][field] = value
        bad = tmp_path / "comments.jsonl"
        write_jsonl(bad, records)
        if command == "train":
            argv = ["train", "--config", smoke / "cfg.json", "--set", f"data.comments={bad}",
                    "--out-dir", tmp_path / "run"]
        else:
            argv = ["augment-comments", "--crowd", bad, "--raw", smoke / "comments.jsonl",
                    "--out-dir", tmp_path / "out"]
        assert run(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {bad}:2: {message}" in err
        assert "Traceback" not in err


class TestMalformedTaxonomy:
    @pytest.mark.parametrize("content,message", [
        ("{not json", "not valid JSON"),
        ('"aspects"', "expected a non-empty list of aspects"),
        ('{"names": ["pacing"]}', "expected a non-empty list of aspects"),
        ('[{"index": 0, "name": "pacing"}, {"index": 1}]',
         "aspect entry {'index': 1} needs an int 'index' and a str 'name'"),
        ('[{"name": "pacing"}]',
         "aspect entry {'name': 'pacing'} needs an int 'index' and a str 'name'"),
        ('[{"index": 0, "name": "pacing"}, {"index": 1, "name": "pacing"}]',
         "duplicate aspect names"),
    ], ids=["not_json", "string", "no_aspects_key", "no_name", "no_index", "duplicate"])
    @pytest.mark.parametrize("command", ["augment-comments", "train"])
    def test_exits_with_data_error_naming_the_file(self, smoke, tmp_path, capsys,
                                                   command, content, message):
        path = tmp_path / "taxonomy.json"
        path.write_text(content, encoding="utf-8")
        if command == "train":
            argv = ["train", "--config", smoke / "cfg.json",
                    "--set", f"data.taxonomy={path}", "--out-dir", tmp_path / "run"]
        else:
            argv = ["augment-comments", "--crowd", smoke / "comments.jsonl",
                    "--raw", smoke / "comments.jsonl", "--taxonomy", path,
                    "--out-dir", tmp_path / "out"]
        assert run(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err
        assert "Traceback" not in err


class TestMalformedSettings:
    """A setting the program cannot use exits 2 with a message naming it."""

    @pytest.mark.parametrize("kind,value,named", [
        ("set", 'train.epochs="abc"', "'train.epochs' must be int, got str"),
        ("set", "model.n_heads=0", "must be a positive multiple of n_heads 0 >= 1"),
        ("set", "model.d_model=0", "d_model 0 must be a positive multiple of n_heads"),
        ("config", [1, 2], "cfg.json: expected a JSON object, got list"),
        ("config", {"model": {"nope": 1}}, "unknown config key 'model.nope'"),
        ("config", {"train": {"nope": 1}}, "unknown config key 'train.nope'"),
        ("config", {"data": {"nope": 1}}, "unknown config key 'data.nope'"),
        ("config", {"train": {"epochs": "3"}}, "'train.epochs' must be int, got str"),
        ("config", {"model": 5}, "'model' must be dict, got int"),
        ("spec", [1], "spec.json: expected a JSON object, got list"),
        ("spec", {"pairs": 5}, "field 'pairs' must be str, got int"),
        ("spec", {"n_permutations": "x"}, "field 'n_permutations' must be int, got str"),
        ("prepare-pairs", ["--ratios", "a,b"], "--ratios cannot read 'a,b'"),
        ("prepare-pairs", ["--exclude-from", "notadate"], "--exclude-from cannot read 'notadate'"),
        ("extract-aspects", ["--candidates", "a"], "--candidates cannot read 'a'"),
        ("extract-aspects", ["--topics", "0"], "--topics 0 must be in [1, inf]"),
        ("set", "model.n_enc_layers=-1", "n_enc_layers -1 must be >= 1"),
        ("set", "model.dropout=1.5", "dropout 1.5 must be in [0, 1)"),
        ("set", "model.max_len=0", "max_len 0 must be >= 1"),
        ("spec", {"recall_ks": ["a"]}, "field 'recall_ks' must list ints in [1, 10], got ['a']"),
        ("spec", {"recall_ks": [1.5]}, "field 'recall_ks' must list ints in [1, 10], got [1.5]"),
        ("spec", {"recall_ks": [0]}, "field 'recall_ks' must list ints in [1, 10], got [0]"),
        ("spec", {"recall_ks": []}, "field 'recall_ks' must list ints in [1, 10], got []"),
        ("extract-aspects", ["--top-words", "0"], "--top-words 0 must be in [1, inf]"),
        ("score", ["--beam", "0"], "--beam 0 must be in [1, inf]"),
        ("score", ["--top-aspects", "-1"], "--top-aspects -1 must be in [0, 10]"),
        ("score", ["--max-new-tokens", "97"], "--max-new-tokens 97 must be in [1, 96]"),
        ("evaluate", ["--max-new-tokens", "97"], "--max-new-tokens 97 must be in [1, 96]"),
        ("score", ["--top-aspects", "11"], "--top-aspects 11 must be in [0, 10]"),
        ("spec", {"n_permutations": -1}, "spec.json: field 'n_permutations' must be >= 1, "
                                         "got -1"),
        ("spec", {"n_permutations": 0}, "spec.json: field 'n_permutations' must be >= 1, "
                                        "got 0"),
        ("set", "train.margin=0", "margin 0 must be > 0"),
        ("set", "train.peak_lr=-0.01", "peak_lr -0.01 must be >= 0"),
        ("set", "train.comment_max_len=-1", "comment_max_len -1 must be >= 1"),
        ("set", "train.eval_every=-2", "eval_every -2 must be >= 0"),
        ("set", "train.peak_lr=Infinity", "peak_lr inf must be finite"),
        ("set", "train.margin=Infinity", "margin inf must be finite"),
    ])
    def test_exits_2_naming_the_setting(self, smoke, tmp_path, capsys, kind, value, named):
        model = ["--checkpoint", smoke / "run" / "model.ckpt",
                 "--vocab", smoke / "run" / "vocab.txt"]
        if kind == "set":
            argv = ["train", "--config", smoke / "cfg.json", "--set", value]
        elif kind == "config":
            cfg = value
            if isinstance(value, dict):     # merged into the smoke run's config
                cfg = json.loads((smoke / "cfg.json").read_text())
                for section, entries in value.items():
                    cfg[section] = ({**cfg[section], **entries} if isinstance(entries, dict)
                                    else entries)
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            argv = ["train", "--config", tmp_path / "cfg.json"]
        elif kind in ("spec", "evaluate"):
            spec, flags = (value, []) if kind == "spec" else ({}, value)
            write_json(tmp_path / "spec.json", spec if isinstance(spec, list) else
                       {"stories": str(smoke / "prep" / "stories.jsonl"), **spec})
            argv = ["evaluate", tmp_path / "spec.json", *model, *flags]
        elif kind == "score":
            argv = ["score", *model, "--stories", smoke / "prep" / "stories.jsonl",
                    "--out", tmp_path / "scores.jsonl", *value]
        elif kind == "prepare-pairs":
            argv = ["prepare-pairs", FIXTURE, *PREPARE_FLAGS, *value]
        else:
            argv = ["extract-aspects", smoke / "comments.jsonl", "--iterations", 5, *value]
        if kind in ("set", "config", "prepare-pairs", "extract-aspects"):
            argv += ["--out-dir", tmp_path / "out"]
        assert run(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags,named", [
        (["--epochs", 0], "--epochs 0 must be in [1, inf]"),
        (["--epochs", -1], "--epochs -1 must be in [1, inf]"),
        (["--confidence", 1.5], "--confidence 1.5 must be in [0, 1]"),
        (["--cap", -1], "--cap -1 must be in [0, inf]"),
        (["--lr", -1], "--lr -1.0 must be in (0, inf]"),
        (["--min-words", 60, "--max-words", 10], "--max-words 10 must be in [60, inf]"),
        (["--n-aspects", 0], "--n-aspects 0 must be in [1, inf]"),
    ], ids=["epochs_0", "epochs_neg", "confidence", "cap", "lr", "max_words", "n_aspects"])
    def test_augment_comments_flags(self, tmp_path, capsys, flags, named):
        # checked before any input is read: the inputs do not exist
        argv = ["augment-comments", "--crowd", tmp_path / "no_crowd.jsonl",
                "--raw", tmp_path / "no_raw.jsonl", "--out-dir", tmp_path / "out", *flags]
        assert run(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flags,named", [
        ("prepare-pairs", ["--ratios", "0.5,0.5"], "--ratios 0.5,0.5 must be three numbers"),
        ("prepare-pairs", ["--ratios", "0.4,0.3,0.2,0.1"], "--ratios 0.4,0.3,0.2,0.1 must be"),
        ("prepare-pairs", ["--ratios", "1.2,-0.1,-0.1"], "--ratios 1.2,-0.1,-0.1 must be"),
        ("prepare-pairs", ["--ratios", "0.5,0.6,0.1"], "--ratios 0.5,0.6,0.1 must be"),
        ("prepare-pairs", ["--max-pairs-per-prompt", 0], "--max-pairs-per-prompt 0 must be in"),
        ("prepare-pairs", ["--max-pairs-per-prompt", -1], "--max-pairs-per-prompt -1 must be"),
        ("prepare-pairs", ["--min-words", 60, "--max-words", 10],
         "--max-words 10 must be in [60, inf]"),
        ("extract-aspects", ["--iterations", 0], "--iterations 0 must be in [1, inf]"),
        ("extract-aspects", ["--iterations", -3], "--iterations -3 must be in [1, inf]"),
        ("extract-aspects", ["--topics", -2], "--topics -2 must be in [1, inf]"),
        ("extract-aspects", ["--candidates", "0,2"], "--candidates 0,2 must list counts >= 1"),
    ], ids=["ratios_two", "ratios_four", "ratios_negative", "ratios_sum", "max_pairs_0",
            "max_pairs_neg", "max_words", "iterations_0", "iterations_neg", "topics",
            "candidates"])
    def test_input_command_flags(self, tmp_path, capsys, command, flags, named):
        # checked before any input is read: the input does not exist
        argv = [command, tmp_path / "missing.jsonl", "--out-dir", tmp_path / "out", *flags]
        assert run(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def artifact_inputs(smoke, tmp_path_factory):
    """Every file the seven artifact commands read, in one directory that the
    commands name by relative paths."""
    root = tmp_path_factory.mktemp("artifacts")
    for src in ("raw.jsonl", "prep/stories.jsonl", "prep/val_pairs.jsonl",
                "comments.jsonl", "run/model.ckpt", "run/vocab.txt"):
        shutil.copy(smoke / src, root)
    shutil.copy(smoke / "run" / "model.ckpt", root / "other.ckpt")
    write_jsonl(root / "crowd.jsonl", full_crowd(smoke))
    stories = read_jsonl(root / "stories.jsonl")[1:]
    for side, end in (("a", "_hi"), ("b", "_lo")):
        write_jsonl(root / f"{side}.jsonl", [{"prompt_id": r["prompt_id"], "text": r["text"]}
                                             for r in stories if r["id"].endswith(end)])
    write_json(root / "spec.json", {"stories": "stories.jsonl", "pairs": "val_pairs.jsonl"})
    return root


MODEL_FLAGS = ["--checkpoint", "model.ckpt", "--vocab", "vocab.txt"]
# each artifact command's argv, with OUT standing for its output, and the
# file under OUT (or OUT itself) that holds its meta
ARTIFACTS = {
    "prepare-pairs": (["raw.jsonl", "--out-dir", "OUT", "--min-words", 20,
                       "--max-words", 120], "stats.json"),
    "make-negatives": (["stories.jsonl", "--out", "OUT"], ""),
    "extract-aspects": (["comments.jsonl", "--out-dir", "OUT", "--topics", 2,
                         "--iterations", 20], "topics.json"),
    "augment-comments": (["--crowd", "crowd.jsonl", "--raw", "comments.jsonl",
                          "--out-dir", "OUT", "--min-words", 5, "--max-words", 30,
                          "--epochs", 1], "audit.json"),
    "score": ([*MODEL_FLAGS, "--stories", "stories.jsonl", "--out", "OUT",
               "--top-aspects", 1, "--max-new-tokens", 3], ""),
    "compare": (["a.jsonl", "b.jsonl", *MODEL_FLAGS, "--out", "OUT"], ""),
    "evaluate": (["spec.json", *MODEL_FLAGS, "--out", "OUT", "--max-new-tokens", 3], ""),
}


def artifact_hash(command: str, out: str, flags=()) -> str:
    """Run ``command`` from the working directory and read its config_hash."""
    argv, meta_file = ARTIFACTS[command]
    assert run([command, *[out if a == "OUT" else a for a in argv], *flags]) == 0
    text = (Path(out) / meta_file).read_text(encoding="utf-8")
    try:
        return json.loads(text)["meta"]["config_hash"]
    except json.JSONDecodeError:     # a JSONL artifact: the meta record leads
        return json.loads(text.splitlines()[0])["meta"]["config_hash"]


class TestProvenance:
    """``config_hash`` covers every flag but a command's file paths.  The
    checkpoint path and an eval spec's contents are hashed as written."""

    @pytest.mark.parametrize("command", sorted(ARTIFACTS))
    def test_hash_ignores_where_the_files_sit(self, artifact_inputs, tmp_path, monkeypatch,
                                              command):
        hashes = []
        for where, out in (("here", "out_1"), ("there/deeper", "out_2")):
            monkeypatch.chdir(shutil.copytree(artifact_inputs, tmp_path / where))
            hashes.append(artifact_hash(command, out))
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("command,flag,value", [
        ("prepare-pairs", "--min-words", 21), ("prepare-pairs", "--max-words", 119),
        ("prepare-pairs", "--exclude-from", "2099-01-01"),
        ("prepare-pairs", "--exclude-to", "1999-01-01"),
        ("prepare-pairs", "--high-min", 100), ("prepare-pairs", "--low-max", 1),
        ("prepare-pairs", "--max-pairs-per-prompt", 1),
        ("prepare-pairs", "--ratios", "0.6,0.2,0.2"), ("prepare-pairs", "--seed", 1),
        ("make-negatives", "--kinds", "shuffle,repeat"), ("make-negatives", "--seed", 1),
        ("extract-aspects", "--topics", 3), ("extract-aspects", "--candidates", "2,3"),
        ("extract-aspects", "--iterations", 21), ("extract-aspects", "--min-count", 3),
        ("extract-aspects", "--top-words", 5), ("extract-aspects", "--seed", 1),
        ("augment-comments", "--confidence", 0.5), ("augment-comments", "--min-words", 6),
        ("augment-comments", "--max-words", 29), ("augment-comments", "--cap", 2),
        ("augment-comments", "--epochs", 2), ("augment-comments", "--lr", 0.01),
        ("augment-comments", "--seed", 1),
        ("score", "--checkpoint", "other.ckpt"), ("score", "--top-aspects", 2),
        ("score", "--max-new-tokens", 4), ("score", "--beam", 2), ("score", "--seed", 1),
        ("compare", "--checkpoint", "other.ckpt"), ("compare", "--seed", 1),
        ("evaluate", "--checkpoint", "other.ckpt"), ("evaluate", "--max-new-tokens", 4),
        ("evaluate", "--seed", 1),
    ])
    def test_hash_changes_with_each_flag(self, artifact_inputs, tmp_path, monkeypatch,
                                         command, flag, value):
        monkeypatch.chdir(artifact_inputs)
        base = artifact_hash(command, str(tmp_path / "base"))
        assert artifact_hash(command, str(tmp_path / "changed"), [flag, value]) != base


# every file a command reads: a file in its ARTIFACTS argv, a flag that argv
# lacks, or an entry of the train config ("data:*") or the eval spec ("spec:*")
READ_FAULTS = [
    ("prepare-pairs", "raw.jsonl"), ("make-negatives", "stories.jsonl"),
    ("extract-aspects", "comments.jsonl"), ("augment-comments", "crowd.jsonl"),
    ("augment-comments", "comments.jsonl"), ("augment-comments", "--taxonomy"),
    ("train", "--config"),
    *[("train", f"data:{key}") for key in ("stories", "pairs_train", "pairs_val", "comments",
                                           "taxonomy", "negatives", "vocab")],
    *[(command, name) for command in ("score", "compare", "evaluate")
      for name in ("model.ckpt", "vocab.txt")],
    ("score", "stories.jsonl"), ("compare", "a.jsonl"), ("compare", "b.jsonl"),
    ("evaluate", "spec.json"),
    *[("evaluate", f"spec:{key}") for key in ("stories", "pairs", "judgments",
                                              "aspect_annotations", "comment_references")],
]
# the file each --out-dir command writes that a directory in its place blocks;
# an --out-dir whose parent is missing is made, so only --out has that fault
OUT_DIR_FILES = {"prepare-pairs": "stats.json", "extract-aspects": "topics.json",
                 "augment-comments": "audit.json", "train": "vocab.txt"}
WRITE_FAULTS = [(command, fault) for command in sorted({*ARTIFACTS, "train"})
                for fault in ("directory", "file_parent", "missing_parent")
                if not (command in OUT_DIR_FILES and fault == "missing_parent")]


def read_fault_argv(smoke, tmp_path, command, name, bad) -> list:
    """``command``'s argv on the ``artifact_inputs`` files, reading ``bad`` for ``name``."""
    if command == "train":
        cfg = json.loads((smoke / "cfg.json").read_text())
        if name.startswith("data:"):
            cfg["data"][name[len("data:"):]] = str(bad)
        write_json(tmp_path / "cfg.json", cfg)
        return ["train", "--config", bad if name == "--config" else tmp_path / "cfg.json",
                "--out-dir", tmp_path / "out"]
    if name.startswith("spec:"):
        write_json(tmp_path / "spec.json", {"stories": "stories.jsonl",
                                            name[len("spec:"):]: str(bad)})
        name, bad = "spec.json", tmp_path / "spec.json"
    argv = [tmp_path / "out" if a == "OUT" else bad if a == name else a
            for a in ARTIFACTS[command][0]]
    return [command, *argv, *([name, bad] if name.startswith("--") else [])]


class TestFileFaults:
    """A file that cannot be read or written exits 3 naming it (2 for the
    train config and the eval spec), never with a traceback."""

    @pytest.mark.parametrize("fault", ["missing", "directory", "not_utf8", "empty"])
    @pytest.mark.parametrize("command,name", READ_FAULTS)
    def test_unreadable_input_names_it(self, smoke, artifact_inputs, tmp_path, monkeypatch,
                                       capsys, command, name, fault):
        monkeypatch.chdir(artifact_inputs)
        bad = tmp_path / "bad"
        if fault == "directory":
            bad.mkdir()
        elif fault == "not_utf8":       # in a checkpoint, the manifest line
            bad.write_bytes(b"\xff\n")
        elif fault == "empty":
            bad.write_bytes(b"")
        config = name in ("--config", "spec.json")
        assert run(read_fault_argv(smoke, tmp_path, command, name, bad)) == \
            (cli.EXIT_CONFIG if config else cli.EXIT_DATA)
        err = capsys.readouterr().err
        assert err.startswith("config error: " if config else "data error: ")
        named = f"{bad}:1: not UTF-8 text" \
            if fault == "not_utf8" and name != "model.ckpt" else str(bad)
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("command,fault", WRITE_FAULTS)
    def test_unwritable_output_names_it(self, smoke, artifact_inputs, tmp_path, monkeypatch,
                                        capsys, command, fault):
        monkeypatch.chdir(artifact_inputs)
        out = named = tmp_path / "out"
        if fault == "directory":        # a directory where the output file belongs
            if command in OUT_DIR_FILES:
                named = out / OUT_DIR_FILES[command]
            named.mkdir(parents=True)
        elif fault == "file_parent":    # a file where a directory belongs
            (tmp_path / "file").write_text("")
            out = named = tmp_path / "file"
            if command not in OUT_DIR_FILES:
                out = named = out / "out"
        else:
            out = named = tmp_path / "nodir" / "out"
        argv = (["--config", smoke / "cfg.json", "--out-dir", out] if command == "train"
                else [out if a == "OUT" else a for a in ARTIFACTS[command][0]])
        assert run([command, *argv]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"'{named}'" in err
        assert "Traceback" not in err

    def test_read_jsonl_keeps_raw_line_separators(self, tmp_path):
        records = [{"id": "a", "text": "one\x85two\u2028three\u2029four"}, {"id": "b"}]
        path = tmp_path / "crlf.jsonl"
        text = "".join(dumps(r) + "\r\n" for r in records)
        path.write_bytes(text.encode("utf-8"))
        assert read_jsonl(path) == records
        path.write_bytes((text + "{bad\r\n").encode("utf-8"))
        with pytest.raises(DataError, match=r"crlf\.jsonl:3: not valid JSON"):
            read_jsonl(path)

    def test_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(b'{"id": "a"}\r\n{"id": "\xff"}\n')
        with pytest.raises(DataError, match=r"bytes\.jsonl:2: not UTF-8 text"):
            read_jsonl(path)
