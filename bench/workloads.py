"""The three benchmark workloads: inputs, CLI commands and output checks.

Each workload builds its inputs from the run seed with
``storyeval.synthetic`` (plus a planted-topic comment corpus for LDA),
writes them as the JSONL files a user would pass, and then drives the
program only through ``storyeval.cli.main(argv)``.  Sizes are fixed
here, so the work per cycle is the same for every seed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from storyeval import rng as rng_mod
from storyeval.aspects import AspectTaxonomy
from storyeval.corpus import build_pairs, split_by_prompt
from storyeval.jsonl import write_jsonl
from storyeval.synthetic import SyntheticSpec, make_aspect_comments, make_preference_corpus

# -- train_joint sizes ------------------------------------------------------------
TRAIN_PROMPTS = 200           # one ranked pair per prompt
TRAIN_SPLIT = (0.8, 0.2)      # 160 training pairs, 40 held-out validation pairs
TRAIN_EPOCHS = 2              # 10 steps of 16 pairs per epoch
TRAIN_BATCH = 16
# loss columns of train_log.csv whose last-epoch mean must be below the
# first epoch's: on 19 seeds L_ac fell by 0.04-0.18, L_c by 1.06-1.17 and
# L_total by 1.11-1.36 in these 20 steps.  L_ps is not among them: it stays
# at its 0.3 margin for 20 steps (and for 50 on the worst seeds), and
# L_ar falls by only 0.002-0.011
TRAIN_FALLING_LOSSES = ("L_ac", "L_c", "L_total")
# so the ranker has not learned yet and held-out pair accuracy is not a
# learnability signal: 57 seeds gave 0.4-0.925 (mean 0.69, sd 0.11), 3 of
# them below chance.  The floor only catches a ranker whose scores tie
# (accuracy counts strictly higher scores, so ties give 0)
TRAIN_MIN_VAL_ACC = 0.2

# -- infer_long sizes ---------------------------------------------------------------
LONG_SPEC = SyntheticSpec(words_low=380, words_high=500)
# the checkpoint is built from a corpus of this fixed seed, so every run
# seed scores its stories with the same untrained model, whose greedy
# comments run to the token limit; seed-dependent inits can emit <eos>
# first (an init from seed 6 does, and `evaluate` then exits 2 on the
# empty comment)
CHECKPOINT_SEED = 0
LONG_PROMPTS = 64             # compare scores 64 stories per side: one batch of 64
SCORE_STORIES = 3             # score: 3 stories x 3 aspects x 40 tokens
SCORE_TOP_ASPECTS = 3
SCORE_NEW_TOKENS = 40
EVAL_PAIRS = 16
EVAL_JUDGED_PROMPTS = 8       # 16 judged stories, two 2,000-permutation tests
EVAL_ANNOTATED = 8
EVAL_REFERENCED = 2
ORACLE_TOLERANCE = 1e-5

# -- aspect_discovery sizes ------------------------------------------------------------
LDA_BANKS = 10
LDA_WORDS_PER_BANK = 8
LDA_DOCS_PER_BANK = 30
LDA_DOC_LEN = 30
LDA_NOISE = 0.1
LDA_CANDIDATES = (5, 10, 15)
LDA_ITERATIONS = 30
LDA_TOP = 8
# mean purity of the chosen topics' top words.  A topic is judged on at
# most its share of the planted words, min(8, 80 // n_topics): with 15
# topics some banks are split, and the 8th word of a split bank's topic
# is someone else's.  Of 40 random seeds at 30 iterations, the 37 that
# chose 10 topics gave 0.81-0.99 (mean 0.91, sd 0.05); the 3 that chose 15
# gave top-5 purity 0.88-0.93 (top-8 purity 0.77-0.83)
LDA_MIN_PURITY = 0.75


@dataclass
class Command:
    """One CLI invocation of a cycle and the check of what it wrote."""

    name: str
    argv: list[str]
    check: Callable[[], list[str]]
    work: Callable[[], float] = lambda: 0.0


class Workload:
    """Inputs, the timed command cycle and the output checks of one workload."""

    def __init__(self):
        self.inputs: Path | None = None
        self.out: Path | None = None
        self.seed = 0
        self.state: dict = {}

    def setup(self, inputs: Path, seed: int) -> list[list[str]]:
        """Write the inputs; return the argv lists that finish set-up."""
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def oracle(self) -> list[Command]:
        """Untimed commands run once after the timed loop to check outputs."""
        return []


def _records(path: Path) -> list[dict]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            if "meta" not in rec:
                out.append(rec)
    return out


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _in_unit(x) -> bool:
    return _finite(x) and 0.0 <= x <= 1.0


# -- train_joint ----------------------------------------------------------------------

class TrainJoint(Workload):
    """Joint training (ranking, aspects, comments) on short stories."""

    def setup(self, inputs: Path, seed: int) -> list[list[str]]:
        self.inputs, self.seed = inputs, seed
        stories = make_preference_corpus(n_prompts=TRAIN_PROMPTS, seed=seed)
        splits = split_by_prompt(build_pairs(stories), ratios=TRAIN_SPLIT, seed=seed)
        comments = make_aspect_comments(stories, seed=seed)
        write_jsonl(inputs / "stories.jsonl", [s.to_record() for s in stories])
        for name in ("train", "val"):
            write_jsonl(inputs / f"{name}_pairs.jsonl",
                        [p.to_record() for p in splits[name]])
        write_jsonl(inputs / "warm_pairs.jsonl",
                    [p.to_record() for p in splits["train"][:TRAIN_BATCH]])
        write_jsonl(inputs / "comments.jsonl", [c.to_record() for c in comments])
        AspectTaxonomy.default().save(inputs / "taxonomy.json")
        self.state["n_train"] = len(splits["train"])
        for tag, pairs, epochs in (("run", "train_pairs.jsonl", TRAIN_EPOCHS),
                                   ("warm", "warm_pairs.jsonl", 1)):
            cfg = {
                "seed": seed,
                "model": {"d_model": 128, "n_enc_layers": 2, "n_dec_layers": 2,
                          "n_heads": 4, "window": 32, "max_len": 96,
                          "n_aspects": 10, "dropout": 0.0},
                "train": {"batch_size": TRAIN_BATCH, "peak_lr": 1e-3,
                          "epochs": epochs, "use_aspects": True,
                          "use_comments": True},
                "data": {"stories": str(inputs / "stories.jsonl"),
                         "pairs_train": str(inputs / pairs),
                         "pairs_val": str(inputs / "val_pairs.jsonl"),
                         "comments": str(inputs / "comments.jsonl"),
                         "taxonomy": str(inputs / "taxonomy.json")},
            }
            (inputs / f"{tag}.json").write_text(json.dumps(cfg, indent=1))
        self.out = inputs / "run"
        return [["train", "--config", str(inputs / "warm.json"),
                 "--out-dir", str(inputs / "warm")]]

    def commands(self) -> list[Command]:
        return [Command("train", ["train", "--config", str(self.inputs / "run.json"),
                                  "--out-dir", str(self.out)],
                        self._check, self._pairs)]

    def _pairs(self) -> float:
        manifest = json.loads((self.out / "manifest.json").read_text())
        return float(manifest["steps"] * TRAIN_BATCH)

    def _check(self) -> list[str]:
        errors = []
        lines = (self.out / "train_log.csv").read_text().splitlines()
        header = [line for line in lines if line.startswith("step")][0].split(",")
        rows = [line.split(",") for line in lines
                if line and not line.startswith(("#", "step"))]
        if not all(math.isfinite(float(x)) for r in rows for x in r[2:]):
            errors.append("train: non-finite loss in train_log.csv")
        per_epoch = -(-self.state["n_train"] // TRAIN_BATCH)
        if len(rows) != TRAIN_EPOCHS * per_epoch:
            errors.append(f"train: {len(rows)} log rows, expected "
                          f"{TRAIN_EPOCHS * per_epoch}")
        else:
            for name in TRAIN_FALLING_LOSSES:
                col = [float(r[header.index(name)]) for r in rows]
                if not sum(col[-per_epoch:]) < sum(col[:per_epoch]):
                    errors.append(f"train: last epoch's mean {name} is not below the first's")
        manifest = json.loads((self.out / "manifest.json").read_text())
        acc = manifest["final_val_acc"]
        self.state["observed"] = {"final_val_acc": acc}
        if not (_finite(acc) and acc >= TRAIN_MIN_VAL_ACC):
            errors.append(f"train: held-out pair accuracy {acc} < {TRAIN_MIN_VAL_ACC}")
        first = self.state.setdefault("files", manifest["files"])
        if manifest["files"] != first:
            errors.append("train: same inputs and seed gave different artifacts")
        return errors


# -- infer_long ---------------------------------------------------------------------------

class InferLong(Workload):
    """Ranking, comment generation and the metric suite on 512-token stories."""

    def setup(self, inputs: Path, seed: int) -> list[list[str]]:
        self.inputs, self.seed = inputs, seed
        stories = make_preference_corpus(n_prompts=LONG_PROMPTS, seed=seed,
                                         spec=LONG_SPEC)
        by_id = {s.id: s for s in stories}
        pairs = sorted(build_pairs(stories), key=lambda p: p.prompt_id)
        comments = make_aspect_comments(stories, seed=seed)
        write_jsonl(inputs / "stories.jsonl", [s.to_record() for s in stories])
        AspectTaxonomy.default().save(inputs / "taxonomy.json")
        # the checkpoint needs one training pair and a small validation set;
        # with zero epochs no step runs
        base = make_preference_corpus(n_prompts=LONG_PROMPTS, seed=CHECKPOINT_SEED,
                                      spec=LONG_SPEC)
        base_pairs = sorted(build_pairs(base), key=lambda p: p.prompt_id)
        write_jsonl(inputs / "ckpt_stories.jsonl", [s.to_record() for s in base])
        write_jsonl(inputs / "ckpt_comments.jsonl",
                    [c.to_record() for c in make_aspect_comments(base, seed=CHECKPOINT_SEED)])
        write_jsonl(inputs / "train_pairs.jsonl", [base_pairs[0].to_record()])
        write_jsonl(inputs / "val_pairs.jsonl", [p.to_record() for p in base_pairs[1:3]])
        for side, attr in (("a", "high_id"), ("b", "low_id")):
            recs = [{"id": getattr(p, attr), "prompt_id": p.prompt_id,
                     "text": by_id[getattr(p, attr)].text} for p in pairs]
            write_jsonl(inputs / f"side_{side}.jsonl", recs)
            write_jsonl(inputs / f"warm_side_{side}.jsonl", recs[:2])
        write_jsonl(inputs / "score_stories.jsonl",
                    [{"id": s.id, "text": s.text}
                     for s in (by_id[p.high_id] for p in pairs[:SCORE_STORIES])])
        write_jsonl(inputs / "warm_score.jsonl",
                    [{"id": pairs[0].high_id, "text": by_id[pairs[0].high_id].text}])

        commented = {c.story_id for c in comments}

        def spec_files(tag: str, n_pairs: int, n_judged: int, n_ann: int,
                       n_ref: int, n_perm: int | None) -> Path:
            chosen = pairs[-n_pairs:]
            judged = [by_id[i] for p in pairs[:n_judged] for i in (p.high_id, p.low_id)]
            annotated = {s.id for s in stories if s.id in commented}
            annotated = set(sorted(annotated)[:n_ann])
            ann = {}
            for c in comments:
                if c.story_id in annotated:
                    ann.setdefault(c.story_id, []).append(c.aspect)
            ref_ids = sorted(ann)[:n_ref]
            write_jsonl(inputs / f"{tag}_pairs.jsonl", [p.to_record() for p in chosen])
            write_jsonl(inputs / f"{tag}_judgments.jsonl",
                        [{"text": s.text, "human": s.upvotes} for s in judged])
            write_jsonl(inputs / f"{tag}_annotations.jsonl",
                        [{"story_id": sid, "aspects": ks} for sid, ks in sorted(ann.items())])
            write_jsonl(inputs / f"{tag}_references.jsonl",
                        [{"story_id": c.story_id, "aspect": c.aspect, "text": c.text}
                         for c in comments if c.story_id in ref_ids])
            spec = {"stories": str(inputs / "stories.jsonl"),
                    "pairs": str(inputs / f"{tag}_pairs.jsonl"),
                    "judgments": str(inputs / f"{tag}_judgments.jsonl"),
                    "aspect_annotations": str(inputs / f"{tag}_annotations.jsonl"),
                    "comment_references": str(inputs / f"{tag}_references.jsonl")}
            if n_perm is not None:
                spec["n_permutations"] = n_perm
            path = inputs / f"{tag}_spec.json"
            path.write_text(json.dumps(spec, indent=1))
            return path

        self.state["spec"] = spec_files("eval", EVAL_PAIRS, EVAL_JUDGED_PROMPTS,
                                        EVAL_ANNOTATED, EVAL_REFERENCED, None)
        warm_spec = spec_files("warm", 2, 3, 1, 1, 20)
        cfg = {"data": {"stories": str(inputs / "ckpt_stories.jsonl"),
                        "pairs_train": str(inputs / "train_pairs.jsonl"),
                        "pairs_val": str(inputs / "val_pairs.jsonl"),
                        "comments": str(inputs / "ckpt_comments.jsonl"),
                        "taxonomy": str(inputs / "taxonomy.json")},
               "seed": CHECKPOINT_SEED}
        (inputs / "ckpt.json").write_text(json.dumps(cfg, indent=1))
        ck = inputs / "ckpt"
        self.state["model"] = ["--checkpoint", str(ck / "model.ckpt"),
                               "--vocab", str(ck / "vocab.txt")]
        model = self.state["model"]
        self.out = inputs / "out"
        self.out.mkdir()
        return [
            ["train", "--preset", "paper", "--set", "train.epochs=0",
             "--config", str(inputs / "ckpt.json"), "--out-dir", str(ck)],
            ["compare", str(inputs / "warm_side_a.jsonl"),
             str(inputs / "warm_side_b.jsonl"), *model,
             "--out", str(self.out / "warm_compare.json")],
            ["score", *model, "--stories", str(inputs / "warm_score.jsonl"),
             "--out", str(self.out / "warm_scored.jsonl"), "--top-aspects", "1",
             "--max-new-tokens", "2"],
            ["evaluate", str(warm_spec), *model, "--out",
             str(self.out / "warm_report.json"), "--max-new-tokens", "2"],
        ]

    def commands(self) -> list[Command]:
        model = self.state["model"]
        return [
            Command("compare", ["compare", str(self.inputs / "side_a.jsonl"),
                                str(self.inputs / "side_b.jsonl"), *model,
                                "--out", str(self.out / "compare.json"),
                                "--seed", str(self.seed)],
                    self._check_compare, lambda: 2.0 * LONG_PROMPTS),
            Command("score", ["score", *model,
                              "--stories", str(self.inputs / "score_stories.jsonl"),
                              "--out", str(self.out / "scored.jsonl"),
                              "--top-aspects", str(SCORE_TOP_ASPECTS),
                              "--max-new-tokens", str(SCORE_NEW_TOKENS),
                              "--seed", str(self.seed)],
                    self._check_score, self._comment_tokens),
            Command("evaluate", ["evaluate", str(self.state["spec"]), *model,
                                 "--out", str(self.out / "report.json"),
                                 "--seed", str(self.seed)],
                    self._check_evaluate),
        ]

    def oracle(self) -> list[Command]:
        """Per-story scores from ``score`` against the batched ``compare``."""
        model = self.state["model"]
        return [Command(f"score_side_{side}",
                        ["score", *model,
                         "--stories", str(self.inputs / f"side_{side}.jsonl"),
                         "--out", str(self.out / f"oracle_{side}.jsonl"),
                         "--top-aspects", "0"],
                        self._check_oracle if side == "b" else (lambda: []))
                for side in ("a", "b")]

    def _check_compare(self) -> list[str]:
        rep = json.loads((self.out / "compare.json").read_text())
        errors = []
        if rep["n_shared_prompts"] != LONG_PROMPTS:
            errors.append(f"compare: {rep['n_shared_prompts']} shared prompts")
        if not (_in_unit(rep["mean_score_a"]) and _in_unit(rep["mean_score_b"])):
            errors.append("compare: mean scores outside [0, 1]")
        if rep["a_wins"] + rep["b_wins"] + rep["ties"] != LONG_PROMPTS:
            errors.append("compare: wins and ties do not add up")
        return errors

    def _check_score(self) -> list[str]:
        recs = _records(self.out / "scored.jsonl")
        errors = []
        if len(recs) != SCORE_STORIES:
            errors.append(f"score: {len(recs)} records for {SCORE_STORIES} stories")
        for r in recs:
            if "error" in r:
                errors.append(f"score: {r['id']}: {r['error']}")
                continue
            if not _in_unit(r["p_s"]):
                errors.append(f"score: {r['id']}: p_s {r['p_s']} outside [0, 1]")
            if not all(_in_unit(x) for x in r["a_r"]):
                errors.append(f"score: {r['id']}: a rating outside [0, 1]")
            if abs(sum(r["a_c"]) - 1.0) > 1e-5:
                errors.append(f"score: {r['id']}: a_c sums to {sum(r['a_c'])}")
            if len(r["comments"]) != SCORE_TOP_ASPECTS or \
                    not all(c.strip() for c in r["comments"].values()):
                errors.append(f"score: {r['id']}: missing or empty comment")
        return errors

    def _comment_tokens(self) -> float:
        return float(sum(len(c.split()) for r in _records(self.out / "scored.jsonl")
                         for c in r.get("comments", {}).values()))

    def _check_evaluate(self) -> list[str]:
        rep = json.loads((self.out / "report.json").read_text())
        errors = []
        checks = {"acc": _in_unit(rep.get("acc")),
                  "rho": _finite(rep.get("rho")) and abs(rep["rho"]) <= 1.0,
                  "tau": _finite(rep.get("tau")) and abs(rep["tau"]) <= 1.0,
                  "rho_p": _in_unit(rep.get("rho_p")),
                  "tau_p": _in_unit(rep.get("tau_p")),
                  "bleu": _in_unit(rep.get("bleu")),
                  "rouge_l": _in_unit(rep.get("rouge_l")),
                  "ppl": _finite(rep.get("ppl")) and rep["ppl"] > 0.0}
        for k in (1, 3, 5):
            checks[f"recall@{k}"] = _in_unit(rep.get(f"recall@{k}"))
        errors += [f"evaluate: {k} missing or out of range" for k, ok in checks.items()
                   if not ok]
        if rep.get("skipped"):
            errors.append(f"evaluate: skipped {rep['skipped']}")
        return errors

    def _check_oracle(self) -> list[str]:
        rep = json.loads((self.out / "compare.json").read_text())
        side = {}
        for tag in ("a", "b"):
            recs = _records(self.out / f"oracle_{tag}.jsonl")
            ids = {r["id"]: r["prompt_id"] for r in _records(self.inputs / f"side_{tag}.jsonl")}
            side[tag] = {ids[r["id"]]: r["p_s"] for r in recs if "p_s" in r}
        prompts = sorted(side["a"])
        if len(prompts) != LONG_PROMPTS or sorted(side["b"]) != prompts:
            return ["oracle: score did not return p_s for every compared story"]
        errors = []
        for tag in ("a", "b"):
            mean = sum(side[tag].values()) / len(prompts)
            if abs(mean - rep[f"mean_score_{tag}"]) > ORACLE_TOLERANCE:
                errors.append(f"oracle: side {tag} mean p_s {mean:.8f} from score != "
                              f"{rep[f'mean_score_{tag}']:.8f} from compare")
        diffs = [side["a"][p] - side["b"][p] for p in prompts]
        near = sum(1 for d in diffs if abs(d) <= ORACLE_TOLERANCE)
        a_wins = sum(1 for d in diffs if d > ORACLE_TOLERANCE)
        b_wins = sum(1 for d in diffs if d < -ORACLE_TOLERANCE)
        if not (a_wins <= rep["a_wins"] <= a_wins + near
                and b_wins <= rep["b_wins"] <= b_wins + near):
            errors.append(f"oracle: compare wins A {rep['a_wins']} B {rep['b_wins']} "
                          f"disagree with per-story scores (A {a_wins} B {b_wins})")
        return errors


# -- aspect_discovery -----------------------------------------------------------------

def planted_topic_texts(seed: int) -> tuple[list[str], list[list[str]]]:
    """Comments drawn from disjoint word banks, one bank per document.

    Each token comes from the document's own bank, except a ``LDA_NOISE``
    share drawn from a random bank; LDA should recover the banks.
    """
    rng = rng_mod.stream(seed, "bench_planted_topics")
    banks = [[f"t{chr(97 + t)}{chr(97 + i)}" for i in range(LDA_WORDS_PER_BANK)]
             for t in range(LDA_BANKS)]
    texts = []
    for t in range(LDA_BANKS):
        for _ in range(LDA_DOCS_PER_BANK):
            src = [t if rng.random() >= LDA_NOISE else int(rng.integers(LDA_BANKS))
                   for _ in range(LDA_DOC_LEN)]
            texts.append(" ".join(banks[s][int(rng.integers(LDA_WORDS_PER_BANK))]
                                  for s in src))
    return texts, banks


class AspectDiscovery(Workload):
    """LDA topic-count selection and fit on a planted-topic comment corpus."""

    def setup(self, inputs: Path, seed: int) -> list[list[str]]:
        self.inputs, self.seed = inputs, seed
        texts, banks = planted_topic_texts(seed)
        self.state["bank_of"] = {w: t for t, bank in enumerate(banks) for w in bank}
        write_jsonl(inputs / "comments.jsonl",
                    [{"story_id": f"s{i:04d}", "text": t} for i, t in enumerate(texts)])
        self.out = inputs / "aspects"
        # two sweeps of the real kernel: enough to warm it and to make each
        # set-up long enough that its median is steady
        return [["extract-aspects", str(inputs / "comments.jsonl"),
                 "--out-dir", str(inputs / "warm"), "--topics", "10",
                 "--iterations", "2"]]

    def commands(self) -> list[Command]:
        return [Command("extract-aspects",
                        ["extract-aspects", str(self.inputs / "comments.jsonl"),
                         "--out-dir", str(self.out),
                         "--candidates", ",".join(map(str, LDA_CANDIDATES)),
                         "--iterations", str(LDA_ITERATIONS),
                         "--seed", str(self.seed)],
                        self._check, self._sweeps)]

    @staticmethod
    def _sweeps() -> float:
        return float(LDA_ITERATIONS * (len(LDA_CANDIDATES) + 1))

    def _check(self) -> list[str]:
        rep = json.loads((self.out / "topics.json").read_text())
        bank_of = self.state["bank_of"]
        n_top = min(LDA_TOP, LDA_BANKS * LDA_WORDS_PER_BANK // max(rep["n_topics"], 1))
        purities = []
        for top in rep["top_words"].values():
            owners = [bank_of.get(w, -1) for w in top[:n_top]]
            purities.append(max(owners.count(o) for o in set(owners)) / len(owners))
        purity = sum(purities) / len(purities)
        self.state["observed"] = {"purity": purity, "n_topics": rep["n_topics"]}
        errors = []
        if rep["n_topics"] not in LDA_CANDIDATES:
            errors.append(f"extract-aspects: chose {rep['n_topics']} topics")
        if not _finite(rep["umass_coherence"]):
            errors.append("extract-aspects: UMass coherence is not finite")
        if purity < LDA_MIN_PURITY:
            errors.append(f"extract-aspects: mean top-{n_top} purity {purity:.3f} "
                          f"< {LDA_MIN_PURITY}")
        return errors


WORKLOADS = {"train_joint": TrainJoint, "infer_long": InferLong,
             "aspect_discovery": AspectDiscovery}
