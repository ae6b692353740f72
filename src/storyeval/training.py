"""Multi-task training loop for the story evaluator.

One step encodes a batch of ranked pairs (the preferred stories, the
rejected ones and, with coherence training, one corrupted negative per
rejected story) in a single encoder pass, and every loss component the
run enables (preference ranking, coherence hinge, aspect heads, and the
comment decoder, conditioned by its aspect token) reads its rows of that
one batch.  One AdamW step follows.
Every draw is a function of (seed, counter): epoch e's batch order comes
from the ``trainer_shuffle:{e}`` stream, and step s's negative picks,
comment picks and dropout, in that order, from ``trainer_step:{s}``.  The
trainer holds no generator, so a resumed run replays the steps it repeats.
Validation, ``pair_scores`` and ``score_texts`` score stories through
``Model.infer``.
"""

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import rng as rng_mod
from .aspects import CommentRecord
from .checkpoint import config_hash, load_checkpoint, save_checkpoint
from .corpus import RankedPair, Story
from .errors import ConfigError, ContractViolation
from .jsonl import read_text
from .losses import (
    coherence_rank_loss,
    discrimination_loss,
    joint_loss,
    margin_rank_loss,
    rating_loss,
)
from .losses import confidence_loss as conf_loss
from .metrics import pairwise_accuracy
from .model import Model, predict_aspects, predict_preference
from .optim import AdamW, LrSchedule, lr_at, steps_per_epoch
from .vocab import tokenize

LOG_HEADER = "step,lr,L_ps,L_ac,L_ar,L_c,L_total"


@dataclass
class TrainConfig:
    batch_size: int = 16
    margin: float = 0.3
    peak_lr: float = 4e-6
    warmup_frac: float = 0.1
    epochs: int = 5
    seed: int = 0
    use_ps: bool = True
    use_aspects: bool = False
    use_comments: bool = False
    use_negatives: bool = False
    objective: str = "rank"
    comment_max_len: int = 24
    eval_every: int = 0

    def __post_init__(self):
        if self.objective not in ("rank", "discrimination"):
            raise ConfigError(f"unknown objective '{self.objective}'")
        for name, low in (("batch_size", 1), ("epochs", 0), ("peak_lr", 0),
                          ("comment_max_len", 1), ("eval_every", 0)):
            if not getattr(self, name) >= low:
                raise ConfigError(f"{name} {getattr(self, name)} must be >= {low}")
        if not self.margin > 0:
            raise ConfigError(f"margin {self.margin} must be > 0")
        for name in ("peak_lr", "margin"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} {getattr(self, name)} must be finite")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ConfigError("warmup_frac must be in [0, 1]")
        if self.use_comments and not self.use_aspects:
            raise ConfigError("comment loss requires the aspect task")
        if not (self.use_ps or self.use_aspects or self.use_comments):
            raise ConfigError("no loss component enabled")


@dataclass
class TrainData:
    stories: dict[str, Story]
    train_pairs: list[RankedPair]
    val_pairs: list[RankedPair]
    comments: dict[str, list[CommentRecord]] = field(default_factory=dict)
    negatives: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class LogRow:
    """One step's losses; ``l_total`` is ((l_ps + l_ac) + l_ar) + l_c in
    float64, so a logged row's total recomputes bitwise."""

    step: int
    lr: float
    l_ps: float
    l_ac: float
    l_ar: float
    l_c: float
    l_total: float

    def __post_init__(self):
        for name in ("l_ps", "l_ac", "l_ar", "l_c"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be non-negative")

    def csv_line(self) -> str:
        return (f"{self.step},{self.lr!r},{self.l_ps!r},{self.l_ac!r},"
                f"{self.l_ar!r},{self.l_c!r},{self.l_total!r}")


def score_texts(model: Model, texts: list[str]) -> np.ndarray:
    """Preference scores for raw story texts, in input order."""
    seqs = [tokenize(t, model.vocab, model.config.max_len) for t in texts]
    return model.infer(seqs)[0]


def pair_scores(model: Model, stories: dict[str, Story],
                pairs: list[RankedPair]) -> tuple[np.ndarray, np.ndarray]:
    """Preference scores (hi, lo) of each pair's two stories; every distinct
    story is tokenized once and scored in one ``Model.infer`` call."""
    row = {sid: i for i, sid in enumerate(dict.fromkeys(
        sid for p in pairs for sid in (p.high_id, p.low_id)))}
    p_s = model.infer([tokenize(stories[sid].text, model.vocab, model.config.max_len)
                       for sid in row])[0]
    return p_s[[row[p.high_id] for p in pairs]], p_s[[row[p.low_id] for p in pairs]]


def evaluate_pairs(model: Model, stories: dict[str, Story],
                   pairs: list[RankedPair]) -> float:
    """``pairwise_accuracy``: the fraction of pairs whose preferred story scores higher."""
    hi, lo = pair_scores(model, stories, pairs)
    return pairwise_accuracy(zip(hi, lo))


class Trainer:
    def __init__(self, model: Model, data: TrainData, config: TrainConfig):
        if not data.train_pairs:
            raise ContractViolation("no training pairs")
        if config.use_negatives and not data.negatives:
            raise ConfigError("negatives enabled but none supplied")
        if config.use_aspects and not data.comments:
            raise ConfigError("aspect task enabled but no comment records")
        self.model = model
        self.data = data
        self.config = config
        self.opt = AdamW(model.params)
        total = config.epochs * steps_per_epoch(len(data.train_pairs), config.batch_size)
        self.schedule = LrSchedule(peak_lr=config.peak_lr,
                                   warmup_steps=int(round(total * config.warmup_frac)),
                                   total_steps=max(total, 1))
        self.total_steps = total
        self.step = 0
        self.best_val_acc = -1.0
        self.best_step = -1
        self.final_val_acc = float("nan")
        self.rows: list[LogRow] = []
        self._ids = {s.id: tokenize(s.text, model.vocab, model.config.max_len)
                     for s in data.stories.values()}
        self._neg_ids = {sid: [tokenize(t, model.vocab, model.config.max_len) for t in texts]
                         for sid, texts in data.negatives.items()}
        self._targets = {sid: self._aspect_targets(recs)
                         for sid, recs in data.comments.items()}
        self._comment_ids = {sid: [(r.aspect, model.vocab.comment_ids(
                                       r.text, config.comment_max_len)) for r in recs]
                             for sid, recs in data.comments.items()}

    def _aspect_targets(self, recs: list[CommentRecord]):
        """Multi-hot commented aspects, also the rating loss's mask, and mean ratings."""
        k = self.model.config.n_aspects
        y_ac = np.zeros(k, dtype=np.float64)
        y_ar = np.zeros(k, dtype=np.float64)
        counts = np.zeros(k, dtype=np.float64)
        for r in recs:
            y_ac[r.aspect] = 1.0
            y_ar[r.aspect] += r.rating
            counts[r.aspect] += 1.0
        sel = counts > 0
        y_ar[sel] /= counts[sel]
        return y_ac, y_ar

    # -- single step --------------------------------------------------------

    def _comment_picks(self, batch, rng) -> list[tuple]:
        """One (story row, aspect, comment ids) draw per pair that has a
        comment on either story; row i is pair i's preferred story and row
        len(batch) + i its rejected one."""
        picks = []
        for i, p in enumerate(batch):
            cands = [(row, k, ids) for row, sid in ((i, p.high_id), (len(batch) + i, p.low_id))
                     for k, ids in self._comment_ids.get(sid, [])]
            if cands:
                picks.append(cands[int(rng.integers(len(cands)))])
        return picks

    def train_step(self, batch: list[RankedPair]) -> LogRow:
        """One AdamW step on ``batch``; returns the ``LogRow`` it appends to
        ``rows``.  The B high stories, the B low stories and one negative per
        low story that has any are encoded as one batch; each loss, the
        comment loss too, reads its rows of that batch.  A batch that draws
        no comment reads only v_s, so its encode skips the token states."""
        cfg, params, b = self.config, self.model.params, len(batch)
        rng = rng_mod.stream(cfg.seed, f"trainer_step:{self.step}")
        sids = [p.high_id for p in batch] + [p.low_id for p in batch]
        seqs = [self._ids[sid] for sid in sids]
        neg_of = []      # the low-story row each negative row is ranked below
        for i, p in enumerate(batch):
            cands = self._neg_ids.get(p.low_id) if cfg.use_negatives else None
            if cands:
                neg_of.append(b + i)
                seqs.append(cands[int(rng.integers(len(cands)))])
        picks = self._comment_picks(batch, rng) if cfg.use_comments else []
        v_s, states, lengths = self.model.encode_stories(seqs, rng=rng, states=bool(picks))
        p_s = predict_preference(params, v_s)
        p_hi, p_lo = p_s[np.arange(b)], p_s[np.arange(b, 2 * b)]
        l_ps = l_ac = l_ar = l_c = 0.0
        if cfg.use_ps and cfg.objective == "discrimination":
            l_ps = 0.5 * (discrimination_loss(p_hi, np.ones(b))
                          + discrimination_loss(p_lo, np.zeros(b)))
        elif cfg.use_ps:
            l_ps = margin_rank_loss(p_hi, p_lo, cfg.margin)
        if neg_of:
            l_ps = l_ps + coherence_rank_loss(p_s[np.asarray(neg_of)],
                                              p_s[np.arange(2 * b, len(seqs))], cfg.margin)
        rows = [i for i, sid in enumerate(sids) if cfg.use_aspects and sid in self._targets]
        if rows:
            y_ac, y_ar = (np.stack(t) for t in zip(*(self._targets[sids[i]] for i in rows)))
            a_c, a_r = predict_aspects(params, v_s[np.asarray(rows)])
            l_ac, l_ar = conf_loss(a_c, y_ac), rating_loss(a_r, y_ar, y_ac)
        if picks:      # (rows, aspects, comments)
            l_c = self.model.encoded_comment_nll(states, lengths, *zip(*picks), rng=rng)
        f = [float(x) for x in (l_ps, l_ac, l_ar, l_c)]
        row = LogRow(self.step, lr_at(self.schedule, self.step), *f,
                     ((f[0] + f[1]) + f[2]) + f[3])
        ad.forward_backward(joint_loss(l_ps, l_ac, l_ar, l_c), params)
        self.opt.step(lr=row.lr)
        self.rows.append(row)
        self.step += 1
        return row

    # -- full run ------------------------------------------------------------

    def validation_accuracy(self) -> float:
        if not self.data.val_pairs:
            return float("nan")
        return evaluate_pairs(self.model, self.data.stories, self.data.val_pairs)

    def _save(self, path) -> None:
        if path is not None:
            save_checkpoint(path, self.model.params, self.model.config,
                            seed=self.config.seed, step=self.step,
                            optimizer=self.opt.state(),
                            extra={"best_val_acc": self.best_val_acc,
                                   "best_step": self.best_step})

    def _maybe_checkpoint(self, path, acc: float) -> None:
        if np.isnan(acc) or acc <= self.best_val_acc:
            return
        self.best_val_acc = acc
        self.best_step = self.step
        self._save(path)

    def train(self, checkpoint_path=None, log_path=None,
              resume: bool = False) -> "Trainer":
        """Run the remaining steps and return the trainer, whose ``rows``,
        ``best_val_acc``, ``best_step`` and ``final_val_acc`` hold the outcome."""
        cfg, pairs = self.config, self.data.train_pairs
        if resume:
            if checkpoint_path is None or not Path(checkpoint_path).exists():
                raise ConfigError("resume requested but checkpoint missing")
            ck = load_checkpoint(checkpoint_path)
            have, want = (ck.config_hash, ck.seed), (config_hash(self.model.config), cfg.seed)
            if have != want:
                raise ConfigError(f"checkpoint config hash and seed {have} != the run's {want}")
            for name, p in ck.params.items():
                self.model.params[name].data = p.data
            if ck.optimizer is not None:
                self.opt.load_state(ck.optimizer)
            self.step = ck.step
            self.best_val_acc = float(ck.extra.get("best_val_acc", -1.0))
            self.best_step = int(ck.extra.get("best_step", -1))
        per_epoch = steps_per_epoch(len(pairs), cfg.batch_size)
        every = cfg.eval_every or per_epoch
        validated = (-1, float("nan"))   # (step, accuracy) of the last validation
        # a resume keeps the rows before the checkpoint's step (line-buffered: on disk)
        old = (read_text(log_path).splitlines(True)
               if resume and log_path and Path(log_path).exists() else [])
        with open(log_path or os.devnull, "w", encoding="utf-8", buffering=1) as log_fh:
            log_fh.write(LOG_HEADER + "\n" + "".join(
                line for line in old if line[:1].isdigit() and int(line.split(",")[0]) < self.step))
            while self.step < self.total_steps:
                epoch, pos = divmod(self.step, per_epoch)
                order = rng_mod.stream(cfg.seed, f"trainer_shuffle:{epoch}").permutation(len(pairs))
                batch = order[pos * cfg.batch_size:(pos + 1) * cfg.batch_size]
                log_fh.write(self.train_step([pairs[i] for i in batch]).csv_line() + "\n")
                if self.step % every == 0:
                    validated = (self.step, self.validation_accuracy())
                    self._maybe_checkpoint(checkpoint_path, validated[1])
        # no step since the last validation: the parameters are the same
        self.final_val_acc = (validated[1] if validated[0] == self.step
                              else self.validation_accuracy())
        self._maybe_checkpoint(checkpoint_path, self.final_val_acc)
        if self.best_step < 0:
            self._save(checkpoint_path)
        return self
