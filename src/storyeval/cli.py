"""Operator command line: dataset prep, training, scoring and reports.

Every command is deterministic given its inputs and seed, and every
artifact embeds the seed and a short hash of the command's flags other
than its file paths (``train``: of its merged config; ``evaluate``: and of
its spec; a file either names enters as set or unset): JSONL files carry
one leading ``{"meta": ...}`` record, JSON reports a ``meta`` key, the
training CSV a leading comment line.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.  A file that cannot be read or written exits 3 naming its path
(2 for ``train --config`` and the ``evaluate`` spec).
"""

import argparse
import copy
import json
import os
import platform
import sys
from datetime import date
from pathlib import Path

import numpy as np
import scipy

from . import rng as rng_mod
from .aspects import (
    AspectTaxonomy,
    CommentRecord,
    augment_comments,
    class_from_rating,
    prepare_comment_docs,
    select_num_topics,
    train_aspect_classifier,
    train_sentiment_scorer,
    umass_coherence,
)
from .checkpoint import load_checkpoint
from .corpus import (
    RankedPair,
    Story,
    build_pairs,
    corpus_stats,
    filter_stories,
    generate_negative,
    parse_stories,
    split_by_prompt,
)
from .errors import (
    ConfigError,
    ContractViolation,
    DataError,
    NumericFailure,
    StoryTooShortError,
    UndefinedCorrelationError,
)
from .jsonl import atomic_write, digest, field_error, read_jsonl, read_text, write_json, write_jsonl
from .metrics import (
    MetricReport,
    bleu_avg,
    corpus_perplexity,
    correlation_pvalue,
    kendall,
    pairwise_accuracy,
    recall_at_k,
    render_report,
    rouge,
    score_distance,
    spearman,
)
from .model import DECODE_TOKENS, INFER_TOKENS, Model, ModelConfig
from .training import TrainConfig, TrainData, Trainer, pair_scores, score_texts
from .vocab import Vocabulary, build_vocab, tokenize, words

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# settings bundles: "desk" is the runnable default; "paper" documents the
# original full-scale schedule and is not expected to converge on a laptop
PRESETS = {
    "desk": {
        "seed": 0,
        "model": {"d_model": 64, "n_enc_layers": 1, "n_dec_layers": 1,
                  "n_heads": 2, "window": 16, "max_len": 128, "n_aspects": 10,
                  "dropout": 0.0},
        "train": {"batch_size": 16, "margin": 0.3, "peak_lr": 1e-3,
                  "warmup_frac": 0.1, "epochs": 8, "objective": "rank",
                  "use_ps": True, "use_aspects": False, "use_comments": False,
                  "use_negatives": False, "comment_max_len": 24,
                  "eval_every": 0},
        "data": {"stories": None, "pairs_train": None, "pairs_val": None,
                 "comments": None, "negatives": None, "vocab": None,
                 "vocab_size": 2000, "taxonomy": None},
    },
    "paper": {
        "seed": 0,
        "model": {"d_model": 128, "n_enc_layers": 2, "n_dec_layers": 2,
                  "n_heads": 4, "window": 32, "max_len": 512, "n_aspects": 10,
                  "dropout": 0.1},
        "train": {"batch_size": 16, "margin": 0.3, "peak_lr": 4e-6,
                  "warmup_frac": 0.1, "epochs": 8, "objective": "rank",
                  "use_ps": True, "use_aspects": True, "use_comments": True,
                  "use_negatives": False, "comment_max_len": 64,
                  "eval_every": 0},
        "data": {"stories": None, "pairs_train": None, "pairs_val": None,
                 "comments": None, "negatives": None, "vocab": None,
                 "vocab_size": 8000, "taxonomy": None},
    },
}


def _meta(args, **derived) -> dict:
    """An artifact's provenance: the hash of every parsed flag except ``fn``
    and the command's ``files``, with ``derived`` values in place of raw ones."""
    skip = {"fn", "files", *args.files}
    settings = {k: v for k, v in vars(args).items() if k not in skip} | derived
    return {"config_hash": digest(settings), "seed": args.seed}


def environment() -> dict:
    """The interpreter, numpy, scipy, BLAS and thread settings a run's numbers
    came from: BLAS splits large GEMMs across threads, and its summation order
    moves training results in their last digits; training scatters the
    embedding gradients through scipy's sparse product."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_count": os.cpu_count()}


def write_artifact_jsonl(path, records, meta: dict) -> None:
    write_jsonl(path, [{"meta": meta}] + list(records))


def data_records(path, required: dict | None = None, parse=None) -> list:
    """``read_jsonl``'s records of ``path`` without its ``{"meta": ...}`` records."""
    return [r for r in read_jsonl(path, required, parse)
            if not isinstance(r, dict) or "meta" not in r]


def _json_object(path) -> dict:
    """A settings file's JSON object; a file that cannot be read or parsed is a config error."""
    try:
        value = json.loads(read_text(path))
    except (OSError, DataError) as exc:
        raise ConfigError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def _parse_flag(args, name: str, parse):
    """``parse`` of flag ``name``'s text; text it cannot read is a config error."""
    text = getattr(args, name)
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"--{name.replace('_', '-')} cannot read '{text}'") from None


def _check_flag(args, name: str, low: float, high: float = np.inf, *,
                flag: str | None = None, open_low: bool = False) -> None:
    """Flag ``name`` (given on the command line as ``flag``, by default
    --name) must lie in [low, high], or in (low, high] with ``open_low``;
    outside, it is a config error."""
    value = getattr(args, name)
    above = value > low if open_low else value >= low
    if not (above and value <= high):
        raise ConfigError(f"{flag or '--' + name.replace('_', '-')} {value} must be in "
                          f"{'(' if open_low else '['}{low}, {high}]")


def _override(cfg: dict, preset: dict, key: str, value) -> None:
    """Set the dotted ``key`` of ``cfg`` to ``value``, a dict key by key.  The
    key must be in ``preset`` and the value of the preset's type: an int
    passes for a float, a string or null where the preset holds null, and
    a section is never replaced whole."""
    if isinstance(value, dict):
        for name, item in value.items():
            _override(cfg, preset, f"{key}.{name}" if key else name, item)
        return
    *sections, leaf = key.split(".")
    for part in sections:
        if not isinstance(preset.get(part), dict):
            raise ConfigError(f"unknown config section '{part}' in '{key}'")
        cfg, preset = cfg[part], preset[part]
    if leaf not in preset:
        raise ConfigError(f"unknown config key '{key}'")
    want = type(preset[leaf])
    kinds = {float: (float, int), type(None): (str, type(None))}.get(want, (want,))
    if type(value) not in kinds:
        names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
        raise ConfigError(f"config key '{key}' must be {names}, got {type(value).__name__}")
    cfg[leaf] = value


def load_run_config(args) -> dict:
    preset = PRESETS[args.preset]
    cfg = copy.deepcopy(preset)
    if args.config:
        _override(cfg, preset, "", _json_object(args.config))
    for assignment in args.set or []:
        if "=" not in assignment:
            raise ConfigError(f"--set expects key.path=value, got '{assignment}'")
        key, _, raw = assignment.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _override(cfg, preset, key, value)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _nonempty_records(path, required: dict | None = None, parse=None) -> list:
    """``data_records`` of an input file that must hold at least one record."""
    recs = data_records(path, required, parse)
    if not recs:
        raise DataError(f"{path}: no records")
    return recs


def _load_stories(path) -> dict[str, Story]:
    stories, rejects = parse_stories(_nonempty_records(path))
    if rejects:
        raise DataError(f"{path}: {len(rejects)} malformed story records")
    return {s.id: s for s in stories}


def _load_pairs(path, stories: dict[str, Story]) -> list[RankedPair]:
    """The ranked pairs of ``path``, at least one, each naming two of ``stories``."""
    pairs = [RankedPair(r["prompt_id"], r["high_id"], r["low_id"])
             for r in _nonempty_records(path, {"prompt_id": str, "high_id": str,
                                               "low_id": str})]
    for p in pairs:
        _story(stories, p.high_id, path)
        _story(stories, p.low_id, path)
    return pairs


def _load_comment_records(path, parse=CommentRecord.from_record) -> list[CommentRecord]:
    """``parse`` of each comment record of ``path``, whose text must hold a word."""
    return _nonempty_records(path, {"story_id": str, "text": str, "aspect": int,
                                    "rating": (int, float)}, lambda rec: parse(_worded(rec)))


def _worded(rec: dict) -> dict:
    """A record whose 'text' holds a word: as a ``read_jsonl`` parse, a blank
    text is a data error naming its line."""
    if not words(rec["text"]):
        raise ContractViolation("text is empty after normalization")
    return rec


def _crowd_record(rec: dict) -> CommentRecord:
    """A crowd comment whose rating is a sentiment class."""
    record = CommentRecord.from_record(rec)
    class_from_rating(record.rating)
    return record


def _story(stories: dict[str, Story], story_id: str, path) -> Story:
    """The story a record in ``path`` names; an unknown id is a data error."""
    if story_id not in stories:
        raise DataError(f"{path}: unknown story id '{story_id}'")
    return stories[story_id]


def _check_aspects(path, aspect_ids: list, n_aspects: int) -> None:
    """Aspect ids a record in ``path`` names: at least one, each in [0, K)."""
    if not aspect_ids:
        raise DataError(f"{path}: empty aspects list")
    for k in aspect_ids:
        if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < n_aspects:
            raise DataError(f"{path}: aspect id {k!r} outside [0, {n_aspects})")


# -- prepare-pairs -----------------------------------------------------------

def cmd_prepare(args) -> int:
    ratios = _parse_flag(args, "ratios", lambda text: tuple(float(x) for x in text.split(",")))
    if len(ratios) != 3 or not min(ratios) >= 0 or not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ConfigError(f"--ratios {args.ratios} must be three numbers >= 0 summing to 1")
    if args.max_pairs_per_prompt is not None:
        _check_flag(args, "max_pairs_per_prompt", 1)
    _check_flag(args, "max_words", args.min_words)
    for name in ("exclude_from", "exclude_to"):
        _parse_flag(args, name, lambda text: text and date.fromisoformat(text))
    stories, bad = parse_stories(data_records(args.input))
    kept, rejected = filter_stories(stories, min_words=args.min_words,
                                    max_words=args.max_words,
                                    exclude_from=args.exclude_from,
                                    exclude_to=args.exclude_to)
    pairs = build_pairs(kept, high_min=args.high_min, low_max=args.low_max,
                        max_pairs_per_prompt=args.max_pairs_per_prompt)
    if not pairs:
        raise DataError(f"{args.input}: no ranked pairs survive filtering; relax "
                        f"--min-words/--max-words or the vote thresholds")
    splits = split_by_prompt(pairs, ratios=ratios, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(args)
    write_artifact_jsonl(out / "stories.jsonl", [s.to_record() for s in kept], meta)
    for name in ("train", "val", "test"):
        write_artifact_jsonl(out / f"{name}_pairs.jsonl",
                             [p.to_record() for p in splits[name]], meta)
    stats = corpus_stats(splits, kept)
    stats.update({"parse_rejects": len(bad), "filter_rejects": len(rejected),
                  "meta": meta})
    write_json(out / "stats.json", stats)
    print(f"kept {len(kept)} stories, {len(pairs)} pairs "
          f"(train {len(splits['train'])}, val {len(splits['val'])}, "
          f"test {len(splits['test'])}) -> {out}")
    return EXIT_OK


# -- make-negatives ----------------------------------------------------------

def cmd_make_negatives(args) -> int:
    kinds = args.kinds.split(",")
    unknown = sorted(set(kinds) - {"shuffle", "repeat", "substitute"})
    if unknown:
        raise ConfigError(f"unknown perturbation kinds: {', '.join(unknown)}")
    stories = _load_stories(args.input)
    records, skipped = [], {}
    for sid in sorted(stories):
        for kind in kinds:
            try:
                records.append(generate_negative(stories[sid], kind, seed=args.seed).to_record())
            except (StoryTooShortError, DataError):
                skipped[kind] = skipped.get(kind, 0) + 1
    if not records:
        raise DataError(f"{args.input}: no negatives could be generated")
    write_artifact_jsonl(args.out, records, {**_meta(args, kinds=kinds), "skipped": skipped})
    print(f"wrote {len(records)} negatives "
          f"({len(skipped)} kinds had skips: {skipped or 'none'}) -> {args.out}")
    return EXIT_OK


# -- extract-aspects ---------------------------------------------------------

def cmd_extract_aspects(args) -> int:
    _check_flag(args, "top_words", 1)
    _check_flag(args, "iterations", 1)
    if args.topics is not None:
        _check_flag(args, "topics", 1)
        candidates = [args.topics]
    else:
        candidates = _parse_flag(args, "candidates", lambda text: [int(c) for c in text.split(",")])
        if min(candidates) < 1:
            raise ConfigError(f"--candidates {args.candidates} must list counts >= 1")
    texts = [r["text"] for r in data_records(args.input, {"text": str})]
    docs, words = prepare_comment_docs(texts, min_count=args.min_count)
    if not docs:
        raise DataError(f"{args.input}: no usable comments after tokenization")
    # a single candidate is fitted without scoring
    model = select_num_topics(docs, words, candidates, seed=args.seed, iterations=args.iterations)
    n_topics = model.n_topics
    top = model.top_words(args.top_words)
    coherence = umass_coherence(model, docs, top_n=args.top_words)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(args)
    report = {"n_topics": n_topics, "umass_coherence": coherence,
              "top_words": {str(t): top[t] for t in range(n_topics)}, "meta": meta}
    write_json(out / "topics.json", report)
    names = [f"topic-{t} ({'/'.join(top[t][:3])})" for t in range(n_topics)]
    AspectTaxonomy(names=names, groups=["discovered"] * n_topics).save(
        out / "taxonomy.json", meta=meta)
    print(f"{n_topics} topics (UMass {coherence:.2f}); "
          f"edit {out / 'taxonomy.json'} to name them")
    for t in range(n_topics):
        print(f"  topic {t}: {' '.join(top[t])}")
    return EXIT_OK


# -- augment-comments --------------------------------------------------------

def cmd_augment(args) -> int:
    _check_flag(args, "epochs", 1)
    _check_flag(args, "lr", 0, open_low=True)
    _check_flag(args, "confidence", 0, 1)
    _check_flag(args, "max_words", args.min_words)
    _check_flag(args, "n_aspects", 1)
    if args.per_aspect_cap is not None:
        _check_flag(args, "per_aspect_cap", 0, flag="--cap")
    crowd = _load_comment_records(args.crowd, _crowd_record)
    # with --min-words >= 1 a blank comment is one the length filter rejects
    raw = _nonempty_records(args.raw, {"text": str}, _worded if args.min_words < 1 else None)
    n_aspects = len(AspectTaxonomy.load(args.taxonomy)) if args.taxonomy else args.n_aspects
    for rec in crowd:
        _check_aspects(args.crowd, [rec.aspect], n_aspects)
    try:
        classifier = train_aspect_classifier(crowd, n_aspects=n_aspects,
                                             epochs=args.epochs, lr=args.lr,
                                             seed=args.seed)
        scorer = train_sentiment_scorer(crowd, epochs=args.epochs, lr=args.lr,
                                        seed=args.seed)
    except DataError as exc:
        raise DataError(f"{args.crowd}: {exc}") from exc
    kept, audit = augment_comments(raw, classifier, scorer,
                                   confidence=args.confidence,
                                   min_words=args.min_words,
                                   max_words=args.max_words,
                                   per_aspect_cap=args.per_aspect_cap)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    audit["meta"] = _meta(args, n_aspects=n_aspects)
    write_artifact_jsonl(out / "augmented.jsonl", [r.to_record() for r in kept], audit["meta"])
    write_json(out / "audit.json", audit)
    print(f"kept {audit['kept']}/{audit['total']} comments "
          f"(length {audit['rejected_length']}, confidence "
          f"{audit['rejected_confidence']}, cap {audit['rejected_cap']})")
    return EXIT_OK


# -- train -------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = load_run_config(args)
    data_cfg = cfg["data"]
    for key in ("stories", "pairs_train", "pairs_val"):
        if not data_cfg.get(key):
            raise ConfigError(f"data.{key} must be set (config file or --set)")
    train_cfg = TrainConfig(seed=cfg["seed"], **cfg["train"])
    if train_cfg.use_comments and not data_cfg.get("taxonomy"):
        raise ConfigError("comment training needs data.taxonomy naming the "
                          "aspect heads")
    stories = _load_stories(data_cfg["stories"])
    train_pairs = _load_pairs(data_cfg["pairs_train"], stories)
    val_pairs = _load_pairs(data_cfg["pairs_val"], stories)
    comments: dict[str, list[CommentRecord]] = {}
    texts = [s.text for s in stories.values()]
    if data_cfg.get("comments"):
        for rec in _load_comment_records(data_cfg["comments"]):
            _check_aspects(data_cfg["comments"], [rec.aspect], cfg["model"]["n_aspects"])
            comments.setdefault(rec.story_id, []).append(rec)
            texts.append(rec.text)
    if data_cfg.get("taxonomy"):
        taxonomy = AspectTaxonomy.load(data_cfg["taxonomy"])
        if len(taxonomy) != cfg["model"]["n_aspects"]:
            raise ConfigError(f"taxonomy has {len(taxonomy)} aspects but "
                              f"model.n_aspects={cfg['model']['n_aspects']}")
    negatives: dict[str, list[str]] = {}
    if data_cfg.get("negatives"):
        for r in _nonempty_records(data_cfg["negatives"],
                                   {"source_story_id": str, "text": str}, _worded):
            negatives.setdefault(r["source_story_id"], []).append(r["text"])
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if data_cfg.get("vocab"):
        vocab = Vocabulary.load(data_cfg["vocab"])
    else:
        vocab = build_vocab(texts, size=data_cfg["vocab_size"],
                            n_aspects=cfg["model"]["n_aspects"])
        vocab.save(out / "vocab.txt")
    model_cfg = ModelConfig(**{**cfg["model"], "vocab_size": len(vocab)})
    model = Model(model_cfg, vocab, rng=rng_mod.stream(cfg["seed"], "init"))
    trainer = Trainer(model, TrainData(stories=stories,
                                       train_pairs=train_pairs,
                                       val_pairs=val_pairs,
                                       comments=comments,
                                       negatives=negatives), train_cfg)
    ckpt_path = out / "model.ckpt"
    log_path = out / "train_log.csv"
    trainer.train(checkpoint_path=ckpt_path, log_path=log_path, resume=args.resume)
    hashed = {k: bool(v) if PRESETS[args.preset]["data"][k] is None else v
              for k, v in data_cfg.items()}     # a data file: set or not, not where
    meta = {"config_hash": digest({**cfg, "data": hashed}), "seed": cfg["seed"]}
    log_body = log_path.read_text(encoding="utf-8")
    with atomic_write(log_path) as fh:
        fh.write(f"# config_hash={meta['config_hash']} seed={meta['seed']}\n" + log_body)
    files = {name: digest((out / name).read_bytes())
             for name in ("model.ckpt", "train_log.csv", "vocab.txt") if (out / name).exists()}
    manifest = {"meta": meta, "steps": trainer.step,
                "best_val_acc": trainer.best_val_acc,
                "best_step": trainer.best_step,
                "final_val_acc": trainer.final_val_acc,
                "files": files,
                "config": cfg,
                "environment": environment()}
    write_json(out / "manifest.json", manifest)
    print(f"trained {trainer.step} steps; best val acc "
          f"{trainer.best_val_acc:.4f} at step {trainer.best_step} -> {out}")
    return EXIT_OK


# -- score -------------------------------------------------------------------

def _load_model(checkpoint_path, vocab_path) -> Model:
    ck = load_checkpoint(checkpoint_path, optimizer=False)
    vocab = Vocabulary.load(vocab_path)
    have, want = (len(vocab), vocab.n_aspects), (ck.config.vocab_size, ck.config.n_aspects)
    if have != want:
        raise DataError(f"{vocab_path}: {have[0]} tokens and {have[1]} aspects do not fit "
                        f"{checkpoint_path} ({want[0]} tokens, {want[1]} aspects)")
    return Model(ck.config, vocab, params=ck.params)


def cmd_score(args) -> int:
    model = _load_model(args.checkpoint, args.vocab)
    _check_flag(args, "max_new_tokens", 1, model.config.max_len)
    _check_flag(args, "beam", 1)
    _check_flag(args, "top_aspects", 0, model.config.n_aspects)
    records = _nonempty_records(args.stories)
    outputs, seqs = [], []
    for rec in records:
        out = {"id": rec.get("id", "")}
        try:
            problem = field_error(rec, {"text": str})
            if problem:
                raise DataError(problem)
            seqs.append(tokenize(rec["text"], model.vocab, model.config.max_len))
        except (ContractViolation, DataError) as exc:
            out["error"] = f"{type(exc).__name__}: {exc}"
        outputs.append(out)
    scored, top = [out for out in outputs if "error" not in out], args.top_aspects
    # one encode per story; a decode batch holds at most DECODE_TOKENS tokens of pairs
    for group, (p_s, a_c, a_r), states, lengths, picks in model.encoded(
            seqs, DECODE_TOKENS // top if top else INFER_TOKENS, states=top > 0):
        for i, p, c, r in zip(group, p_s, a_c, a_r):
            scored[i].update(p_s=float(p), a_c=c.tolist(), a_r=r.tolist(), comments={})
        if not top:
            continue
        ks = np.argsort(-a_c, axis=1, kind="stable")[:, :top]
        toks = model.search(states, lengths, np.repeat(picks, top), ks.reshape(-1),
                            args.max_new_tokens, args.beam)
        for i, k, ids in zip(np.repeat(group, top), ks.reshape(-1), toks):
            scored[i]["comments"][str(k)] = model.vocab.decode(ids)
    failures = sum("error" in out for out in outputs)
    write_artifact_jsonl(args.out, outputs, {**_meta(args), "failures": failures})
    print(f"scored {len(outputs) - failures}/{len(records)} stories -> {args.out}")
    return EXIT_OK


# -- compare -----------------------------------------------------------------

def _prompt_texts(path) -> dict[str, str]:
    table = {}
    for r in _nonempty_records(path, {"prompt_id": str, "text": str}, _worded):
        pid = r["prompt_id"]
        if pid in table:
            raise DataError(f"{path}: duplicate prompt_id '{pid}'")
        table[pid] = r["text"]
    return table


def cmd_compare(args) -> int:
    model = _load_model(args.checkpoint, args.vocab)
    side_a = _prompt_texts(args.stories_a)
    side_b = _prompt_texts(args.stories_b)
    shared = sorted(set(side_a) & set(side_b))
    if not shared:
        raise DataError("no shared prompt ids between the two files")
    scores_a = score_texts(model, [side_a[p] for p in shared])
    scores_b = score_texts(model, [side_b[p] for p in shared])
    a_wins = int(np.sum(scores_a > scores_b))
    b_wins = int(np.sum(scores_b > scores_a))
    ties = len(shared) - a_wins - b_wins
    report = {
        "n_shared_prompts": len(shared),
        "a_wins": a_wins, "b_wins": b_wins, "ties": ties,
        "a_win_pct": 100.0 * a_wins / len(shared),
        "b_win_pct": 100.0 * b_wins / len(shared),
        "mean_score_a": float(np.mean(scores_a)),
        "mean_score_b": float(np.mean(scores_b)),
        "preferred": "A" if a_wins > b_wins else ("B" if b_wins > a_wins
                                                  else "tie"),
        "note": "pairwise win percentage is the headline figure; mean "
                "scores are shown for reference only",
        "meta": _meta(args),
    }
    if args.out:
        write_json(args.out, report)
    print(f"A wins {report['a_win_pct']:.1f}%  B wins {report['b_win_pct']:.1f}%"
          f"  ties {ties}/{len(shared)}  "
          f"(mean A {report['mean_score_a']:.4f}, "
          f"mean B {report['mean_score_b']:.4f})")
    return EXIT_OK


# -- evaluate ----------------------------------------------------------------

SPEC_FIELDS = {"stories": str, "pairs": str, "judgments": str, "aspect_annotations": str,
               "comment_references": str, "n_permutations": int, "recall_ks": list}


def cmd_evaluate(args) -> int:
    model = _load_model(args.checkpoint, args.vocab)
    _check_flag(args, "max_new_tokens", 1, model.config.max_len)
    spec = _json_object(args.eval_spec)
    problem = field_error(spec, {k: t for k, t in SPEC_FIELDS.items() if k in spec})
    if problem:
        raise ConfigError(f"{args.eval_spec}: {problem}")
    k_max = model.config.n_aspects
    ks = spec.get("recall_ks", [k for k in (1, 3, 5) if k <= k_max])
    if not ks or any(type(k) is not int or not 1 <= k <= k_max for k in ks):
        raise ConfigError(f"{args.eval_spec}: field 'recall_ks' must list ints in "
                          f"[1, {k_max}], got {ks}")
    n_perm = spec.get("n_permutations", 2000)
    if n_perm < 1:
        raise ConfigError(f"{args.eval_spec}: field 'n_permutations' must be >= 1, "
                          f"got {n_perm}")
    metrics: dict = {}      # MetricReport's fields, checked once it is built
    skipped: list[str] = []
    stories = _load_stories(spec["stories"]) if spec.get("stories") else None

    if spec.get("pairs"):
        if stories is None:
            skipped.append("ranking (needs 'stories' alongside 'pairs')")
        else:
            pairs = _load_pairs(spec["pairs"], stories)
            hi, lo = pair_scores(model, stories, pairs)
            metrics.update(acc=pairwise_accuracy(zip(hi, lo)), dis=score_distance(zip(hi, lo)))
    elif stories is not None:
        skipped.append("ranking (needs 'pairs')")

    if spec.get("judgments"):
        path = spec["judgments"]
        recs = data_records(path, {"text": str, "human": (int, float)}, _worded)
        if len(recs) < 5:
            raise DataError(f"{path}: {len(recs)} judged records; the permutation "
                            f"test needs at least 5")
        human = np.asarray([float(r["human"]) for r in recs])
        pred = score_texts(model, [r["text"] for r in recs])
        try:
            metrics.update(rho=spearman(pred, human), tau=kendall(pred, human))
            for key, name in (("rho_p", "spearman"), ("tau_p", "kendall")):
                metrics[key] = correlation_pvalue(pred, human, statistic=name,
                                                  n_perm=n_perm, seed=args.seed)
        except UndefinedCorrelationError as exc:
            raise DataError(f"{path}: {exc}") from exc

    if spec.get("aspect_annotations"):
        if stories is None:
            skipped.append("aspect recall (needs 'stories')")
        else:
            path = spec["aspect_annotations"]
            recs = _nonempty_records(path, {"story_id": str, "aspects": list})
            for r in recs:
                _check_aspects(path, r["aspects"], model.config.n_aspects)
            _, a_c, _ = model.infer([tokenize(_story(stories, r["story_id"], path).text,
                                              model.vocab, model.config.max_len)
                                     for r in recs])
            metrics["recall"] = {k: sum(recall_at_k(c, r["aspects"], k)
                                        for c, r in zip(a_c, recs)) / len(recs)
                                 for k in ks}

    if spec.get("comment_references"):
        if stories is None:
            skipped.append("generation (needs 'stories')")
        else:
            path = spec["comment_references"]
            recs = _nonempty_records(path, {"story_id": str, "aspect": int, "text": str})
            refs_by_key: dict[tuple, list[str]] = {}
            for r in recs:
                n, where = len(words(r["text"])), f"story '{r['story_id']}' aspect {r['aspect']}"
                if not n:
                    raise DataError(f"{path}: empty reference text for {where}")
                if n >= model.config.max_len:
                    raise DataError(f"{path}: reference text for {where} has {n} words, "
                                    f"over max_len - 1 = {model.config.max_len - 1}")
                _check_aspects(path, [r["aspect"]], model.config.n_aspects)
                refs_by_key.setdefault((r["story_id"], r["aspect"]), []).append(r["text"])
            keys = sorted(refs_by_key)
            story_ids = {sid: tokenize(_story(stories, sid, path).text, model.vocab,
                                       model.config.max_len) for sid, _ in keys}
            hyps = model.generate_comments([story_ids[sid] for sid, _ in keys],
                                           [k for _, k in keys], args.max_new_tokens)
            bleus, rouges, ppl_items = [], [], []
            for (sid, k), toks in zip(keys, hyps):
                refs = refs_by_key[(sid, k)]
                hyp = model.vocab.decode(toks).split()
                ref_tokens = [words(t) for t in refs]
                # an empty generation (<eos> first) matches nothing: 0, not an error
                bleus.append(bleu_avg(hyp, ref_tokens) if hyp else 0.0)
                rouges.append(max(rouge(hyp, rt) for rt in ref_tokens) if hyp else 0.0)
                ppl_items += [(story_ids[sid], k, model.vocab.comment_ids(t)) for t in refs]
            metrics.update(bleu=float(np.mean(bleus)), rouge_l=float(np.mean(rouges)),
                           ppl=corpus_perplexity(model, ppl_items))

    report = MetricReport(**metrics)
    table = render_report(report)
    print(table, end="")
    if skipped:
        print("skipped: " + "; ".join(skipped))
    if args.out:
        payload = report.to_dict()
        payload["meta"] = _meta(args, eval_spec={k: bool(v) if SPEC_FIELDS.get(k) is str else v
                                                 for k, v in spec.items()})
        if skipped:
            payload["skipped"] = skipped
        write_json(args.out, payload)
    return EXIT_OK


# -- wiring ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storyeval",
        description="Train and run the story preference evaluator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(default=0) -> argparse.ArgumentParser:
        """A ``--seed`` parent parser per default: children share a parent's actions."""
        shared = argparse.ArgumentParser(add_help=False)
        shared.add_argument("--seed", type=int, default=default)
        return shared

    trained = argparse.ArgumentParser(add_help=False)
    trained.add_argument("--checkpoint", required=True)
    trained.add_argument("--vocab", required=True)

    p = sub.add_parser("prepare-pairs", parents=[seeded()], help="filter stories and "
                       "build ranked train/val/test pairs")
    p.add_argument("input", help="raw stories JSONL")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-words", type=int, default=200)
    p.add_argument("--max-words", type=int, default=800)
    p.add_argument("--exclude-from", default=None,
                   help="start of excluded date window (YYYY-MM-DD)")
    p.add_argument("--exclude-to", default=None)
    p.add_argument("--high-min", type=int, default=50)
    p.add_argument("--low-max", type=int, default=0)
    p.add_argument("--max-pairs-per-prompt", type=int, default=None)
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.set_defaults(fn=cmd_prepare, files=("input", "out_dir"))

    p = sub.add_parser("make-negatives", parents=[seeded()], help="write perturbed "
                       "negative stories for coherence training")
    p.add_argument("input", help="stories JSONL")
    p.add_argument("--out", required=True)
    p.add_argument("--kinds", default="shuffle,repeat,substitute")
    p.set_defaults(fn=cmd_make_negatives, files=("input", "out"))

    p = sub.add_parser("extract-aspects", parents=[seeded()], help="discover aspect "
                       "topics from comments with LDA")
    p.add_argument("input", help="comments JSONL with a 'text' field")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--topics", type=int, default=None,
                   help="fixed topic count (skips selection)")
    p.add_argument("--candidates", default="5,10,15")
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("--top-words", type=int, default=10)
    p.set_defaults(fn=cmd_extract_aspects, files=("input", "out_dir"))

    p = sub.add_parser("augment-comments", parents=[seeded()], help="label unannotated "
                       "comments with trained filter classifiers")
    p.add_argument("--crowd", required=True, help="labeled comments JSONL")
    p.add_argument("--raw", required=True, help="unlabeled comments JSONL")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--taxonomy", default=None)
    p.add_argument("--n-aspects", type=int, default=10)
    p.add_argument("--confidence", type=float, default=0.9)
    p.add_argument("--min-words", type=int, default=15)
    p.add_argument("--max-words", type=int, default=50)
    p.add_argument("--cap", dest="per_aspect_cap", type=int, default=None)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=3e-3)
    p.set_defaults(fn=cmd_augment, files=("crowd", "raw", "out_dir", "taxonomy"))

    # no --seed default: the config's seed stands unless one is given
    p = sub.add_parser("train", parents=[seeded(None)], help="train the evaluator")
    p.add_argument("--config", default=None, help="JSON run config")
    p.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                   help="override a config value, e.g. train.epochs=4")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("score", parents=[seeded(), trained],
                       help="score stories and generate comments")
    p.add_argument("--stories", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--top-aspects", type=int, default=3)
    p.add_argument("--max-new-tokens", type=int, default=40)
    p.add_argument("--beam", type=int, default=1)
    p.set_defaults(fn=cmd_score, files=("vocab", "stories", "out"))

    p = sub.add_parser("compare", parents=[seeded(), trained], help="pairwise-compare "
                       "two story sets sharing prompt ids")
    p.add_argument("stories_a")
    p.add_argument("stories_b")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare, files=("stories_a", "stories_b", "vocab", "out"))

    p = sub.add_parser("evaluate", parents=[seeded(), trained], help="run the metric "
                       "suite per an eval spec file")
    p.add_argument("eval_spec", help="JSON file naming metric inputs")
    p.add_argument("--out", default=None)
    p.add_argument("--max-new-tokens", type=int, default=40)
    p.set_defaults(fn=cmd_evaluate, files=("eval_spec", "vocab", "out"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
