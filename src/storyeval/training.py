"""Multi-task training loop for the story evaluator.

One step encodes a batch of ranked pairs, adds whichever loss
components the run enables (preference ranking, aspect heads, comment
generation, coherence negatives), and takes one AdamW step.  Everything
is deterministic for a fixed seed: batch order, comment sampling and
dropout all draw from named substreams.  Validation and ``score_texts``
score stories through ``Model.infer``.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import rng as rng_mod
from .aspects import CommentRecord
from .checkpoint import config_hash, load_checkpoint, save_checkpoint
from .corpus import RankedPair, Story
from .errors import ConfigError, ContractViolation
from .losses import (
    LossBreakdown,
    coherence_rank_loss,
    discrimination_loss,
    joint_loss,
    margin_rank_loss,
    rating_loss,
)
from .losses import confidence_loss as conf_loss
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
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size >= 1 and epochs >= 0 required")
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
    step: int
    lr: float
    l_ps: float
    l_ac: float
    l_ar: float
    l_c: float
    l_total: float

    def csv_line(self) -> str:
        return (f"{self.step},{self.lr!r},{self.l_ps!r},{self.l_ac!r},"
                f"{self.l_ar!r},{self.l_c!r},{self.l_total!r}")


@dataclass
class TrainResult:
    rows: list[LogRow]
    best_val_acc: float
    best_step: int
    final_val_acc: float
    checkpoint_path: str | None = None


def score_texts(model: Model, texts: list[str], batch_size: int = 64) -> np.ndarray:
    """Preference scores for raw story texts, in input order."""
    seqs = [tokenize(t, model.vocab, model.config.max_len) for t in texts]
    return model.infer(seqs, batch_size)[0]


def evaluate_pairs(model: Model, stories: dict[str, Story],
                   pairs: list[RankedPair], batch_size: int = 64) -> float:
    """Fraction of pairs where the preferred story scores strictly higher."""
    if not pairs:
        raise ContractViolation("no pairs to evaluate")
    cache: dict[str, np.ndarray] = {}

    def ids(story_id: str) -> np.ndarray:
        if story_id not in cache:
            cache[story_id] = tokenize(stories[story_id].text, model.vocab,
                                       model.config.max_len)
        return cache[story_id]

    hi = model.infer([ids(p.high_id) for p in pairs], batch_size)[0]
    lo = model.infer([ids(p.low_id) for p in pairs], batch_size)[0]
    return float(np.mean(hi > lo))


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
        total = config.epochs * steps_per_epoch(len(data.train_pairs),
                                                config.batch_size)
        self.schedule = LrSchedule(peak_lr=config.peak_lr,
                                   warmup_steps=int(round(total * config.warmup_frac)),
                                   total_steps=max(total, 1))
        self.total_steps = total
        self.step = 0
        self.best_val_acc = -1.0
        self.best_step = -1
        self.rows: list[LogRow] = []
        self._shuffle_rng = rng_mod.stream(config.seed, "trainer_shuffle")
        self._pick_rng = rng_mod.stream(config.seed, "trainer_pick")
        self._drop_rng = rng_mod.stream(config.seed, "trainer_dropout")
        self._ids: dict[str, np.ndarray] = {}
        for story in data.stories.values():
            self._ids[story.id] = tokenize(story.text, model.vocab,
                                           model.config.max_len)
        self._neg_ids = {sid: [tokenize(t, model.vocab, model.config.max_len)
                               for t in texts]
                         for sid, texts in data.negatives.items()}
        self._targets = {sid: self._aspect_targets(recs)
                         for sid, recs in data.comments.items()}
        self._comment_ids = {sid: [(r.aspect, self._comment_tokens(r))
                                   for r in recs]
                             for sid, recs in data.comments.items()}

    def _aspect_targets(self, recs: list[CommentRecord]):
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
        return y_ac, y_ar, sel.astype(np.float64)

    def _comment_tokens(self, rec: CommentRecord) -> np.ndarray:
        v = self.model.vocab
        body = [v.id_of(w) for w in rec.text.split()]
        body = body[: self.config.comment_max_len]
        return np.asarray([v.bos_id] + body + [v.eos_id], dtype=np.int64)

    # -- single step --------------------------------------------------------

    def _train_flags(self):
        train = self.model.config.dropout > 0
        return train, (self._drop_rng if train else None)

    def _preference_losses(self, batch: list[RankedPair]):
        train, rng = self._train_flags()
        hi_seqs = [self._ids[p.high_id] for p in batch]
        lo_seqs = [self._ids[p.low_id] for p in batch]
        v_hi, _, _ = self.model.encode_stories(hi_seqs, train=train, rng=rng)
        v_lo, _, _ = self.model.encode_stories(lo_seqs, train=train, rng=rng)
        p_hi = predict_preference(self.model.params, v_hi)
        p_lo = predict_preference(self.model.params, v_lo)
        if self.config.objective == "discrimination":
            ones = np.ones(len(batch))
            l_ps = 0.5 * (discrimination_loss(p_hi, ones)
                          + discrimination_loss(p_lo, 1.0 - ones))
        else:
            l_ps = margin_rank_loss(p_hi, p_lo, self.config.margin)
        l_c2 = None
        if self.config.use_negatives:
            neg_seqs = []
            for p in batch:
                cands = self._neg_ids.get(p.low_id)
                if not cands:
                    continue
                neg_seqs.append(cands[int(self._pick_rng.integers(len(cands)))])
            if neg_seqs:
                v_neg, _, _ = self.model.encode_stories(neg_seqs, train=train,
                                                        rng=rng)
                p_neg = predict_preference(self.model.params, v_neg)
                keep = [i for i, p in enumerate(batch) if self._neg_ids.get(p.low_id)]
                p_lo_kept = ad.take(p_lo, np.asarray(keep, dtype=np.int64))
                l_c2 = coherence_rank_loss(p_lo_kept, p_neg, self.config.margin)
        return v_hi, v_lo, l_ps, l_c2

    def _aspect_losses(self, batch, v_hi, v_lo):
        sids = [p.high_id for p in batch] + [p.low_id for p in batch]
        rows, y_ac, y_ar, masks = [], [], [], []
        for i, sid in enumerate(sids):
            tgt = self._targets.get(sid)
            if tgt is None:
                continue
            rows.append(i)
            y_ac.append(tgt[0])
            y_ar.append(tgt[1])
            masks.append(tgt[2])
        if not rows:
            return None, None
        b = len(batch)
        idx_hi = np.asarray([r for r in rows if r < b], dtype=np.int64)
        idx_lo = np.asarray([r - b for r in rows if r >= b], dtype=np.int64)
        parts = []
        if idx_hi.size:
            parts.append(ad.take(v_hi, idx_hi))
        if idx_lo.size:
            parts.append(ad.take(v_lo, idx_lo))
        v_sel = parts[0] if len(parts) == 1 else ad.concat(parts)
        a_c, a_r = predict_aspects(self.model.params, v_sel)
        l_ac = conf_loss(a_c, np.stack(y_ac))
        l_ar = rating_loss(a_r, np.stack(y_ar), np.stack(masks))
        return l_ac, l_ar

    def _comment_loss(self, batch):
        train, rng = self._train_flags()
        stories, aspects, comments = [], [], []
        for p in batch:
            cands = [(sid, k, ids) for sid in (p.high_id, p.low_id)
                     for k, ids in self._comment_ids.get(sid, [])]
            if cands:
                sid, k, ids = cands[int(self._pick_rng.integers(len(cands)))]
                stories.append(self._ids[sid])
                aspects.append(k)
                comments.append(ids)
        if not stories:
            return None
        return self.model.comment_nll(stories, aspects, comments, reduce="mean",
                                      train=train, rng=rng)

    def train_step(self, batch: list[RankedPair]) -> LossBreakdown:
        cfg = self.config
        v_hi, v_lo, l_ps, l_c2 = self._preference_losses(batch)
        l_ac = l_ar = l_c = 0.0
        if cfg.use_aspects:
            got_ac, got_ar = self._aspect_losses(batch, v_hi, v_lo)
            if got_ac is not None:
                l_ac, l_ar = got_ac, got_ar
        if cfg.use_comments:
            got_c = self._comment_loss(batch)
            if got_c is not None:
                l_c = got_c
        if not cfg.use_ps:
            l_ps = 0.0
        if l_c2 is not None:
            l_ps = l_ps + l_c2 if cfg.use_ps else l_c2
        breakdown = joint_loss(l_ps, l_ac, l_ar, l_c)
        lr = lr_at(self.schedule, self.step)
        ad.zero_grads(self.model.params)
        ad.forward_backward(breakdown.graph_total, self.model.params)
        self.opt.step(lr=lr)
        row = LogRow(step=self.step, lr=lr, l_ps=breakdown.L_ps,
                     l_ac=breakdown.L_ac, l_ar=breakdown.L_ar,
                     l_c=breakdown.L_c, l_total=breakdown.L_total)
        self.rows.append(row)
        self.step += 1
        return breakdown

    # -- full run ------------------------------------------------------------

    def validation_accuracy(self) -> float:
        if not self.data.val_pairs:
            return float("nan")
        return evaluate_pairs(self.model, self.data.stories,
                              self.data.val_pairs)

    def _maybe_checkpoint(self, path, acc: float) -> None:
        if np.isnan(acc) or acc <= self.best_val_acc:
            return
        self.best_val_acc = acc
        self.best_step = self.step
        if path is not None:
            save_checkpoint(path, self.model.params, self.model.config,
                            seed=self.config.seed, step=self.step,
                            optimizer=self.opt.state(),
                            extra={"best_val_acc": acc,
                                   "best_step": self.step})

    def train(self, checkpoint_path=None, log_path=None,
              resume: bool = False) -> TrainResult:
        if resume:
            if checkpoint_path is None or not Path(checkpoint_path).exists():
                raise ConfigError("resume requested but checkpoint missing")
            ck = load_checkpoint(checkpoint_path)
            want = config_hash(self.model.config)
            if ck.config_hash != want:
                raise ConfigError(
                    f"checkpoint config hash {ck.config_hash} != run config {want}")
            for name, p in ck.params.items():
                self.model.params[name].data = p.data
            if ck.optimizer is not None:
                self.opt.load_state(ck.optimizer)
            self.step = ck.step
            self.best_val_acc = float(ck.extra.get("best_val_acc", -1.0))
            self.best_step = int(ck.extra.get("best_step", -1))
        pairs = list(self.data.train_pairs)
        log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
        try:
            if log_fh:
                log_fh.write(LOG_HEADER + "\n")
            while self.step < self.total_steps:
                order = self._shuffle_rng.permutation(len(pairs))
                for start in range(0, len(pairs), self.config.batch_size):
                    if self.step >= self.total_steps:
                        break
                    batch = [pairs[i]
                             for i in order[start: start + self.config.batch_size]]
                    self.train_step(batch)
                    if log_fh:
                        log_fh.write(self.rows[-1].csv_line() + "\n")
                    if self.config.eval_every and \
                            self.step % self.config.eval_every == 0:
                        self._maybe_checkpoint(checkpoint_path,
                                               self.validation_accuracy())
                if not self.config.eval_every:
                    self._maybe_checkpoint(checkpoint_path,
                                           self.validation_accuracy())
        finally:
            if log_fh:
                log_fh.close()
        final_acc = self.validation_accuracy()
        self._maybe_checkpoint(checkpoint_path, final_acc)
        if checkpoint_path is not None and self.best_step < 0:
            save_checkpoint(checkpoint_path, self.model.params,
                            self.model.config, seed=self.config.seed,
                            step=self.step, optimizer=self.opt.state(),
                            extra={"best_val_acc": self.best_val_acc,
                                   "best_step": self.best_step})
        return TrainResult(rows=self.rows, best_val_acc=self.best_val_acc,
                           best_step=self.best_step, final_val_acc=final_acc,
                           checkpoint_path=str(checkpoint_path)
                           if checkpoint_path else None)
