"""Evaluation metrics: ranking accuracy, correlations, recall, text overlap.

Rank correlations are scored from centred ranks (Spearman) or pairwise
sign matrices (Kendall), whose denominators do not change under
permutation; a point statistic is the identity permutation's score.
The significance test is a seeded two-sided permutation test, because
the desk-scale samples are small enough to make parametric p-values
shaky, and it scores every permutation at once.
Perplexity sums ``Model.encoded_comment_nll`` in float64 over the groups of
``Model.encoded``, the no-grad walk that encodes a group's distinct stories once.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import rng as rng_mod
from .errors import ContractViolation, UndefinedCorrelationError

SIGNIFICANCE_LEVEL = 0.01


def pairwise_accuracy(paired_scores) -> float:
    """Fraction of pairs where the high story outscored the low one.

    Exact ties count as incorrect.
    """
    pairs = list(paired_scores)
    if not pairs:
        raise ContractViolation("pairwise_accuracy needs at least one pair")
    wins = sum(1 for high, low in pairs if high > low)
    return wins / len(pairs)


def score_distance(paired_scores) -> float:
    """Mean signed gap p_high - p_low."""
    pairs = list(paired_scores)
    if not pairs:
        raise ContractViolation("score_distance needs at least one pair")
    return float(np.mean([high - low for high, low in pairs]))


def _check_corr_inputs(x, y, min_n: int):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ContractViolation("correlation inputs must be equal-length vectors")
    if len(x) < min_n:
        raise ContractViolation(f"need at least {min_n} points, got {len(x)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise UndefinedCorrelationError("non-finite input")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedCorrelationError("zero variance input")
    return x, y


def spearman(x, y) -> float:
    """Spearman rho with average ranks for ties."""
    x, y = _check_corr_inputs(x, y, 3)
    return float(_spearman_perms(x, y, np.arange(len(y))[None])[0])


def kendall(x, y) -> float:
    """Kendall tau-b (tie-corrected)."""
    x, y = _check_corr_inputs(x, y, 2)
    return float(_kendall_perms(x, y, np.arange(len(y))[None])[0])


def _ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share their run's mean rank."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    counts = np.diff(np.r_[starts, len(x)])
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def _spearman_perms(x, y, perms) -> np.ndarray:
    """Spearman rho of x against y[p] for every row p of ``perms``."""
    rx, ry = _ranks(x), _ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return ry[perms] @ rx / np.sqrt((rx @ rx) * (ry @ ry))


def _kendall_perms(x, y, perms) -> np.ndarray:
    """Kendall tau-b of x against y[p] for every row p of ``perms``.

    The numerator sums sign products over ordered pairs, in blocks of
    permutations that keep the gathered sign matrices near 4M entries.
    """
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    denom = np.sqrt(np.count_nonzero(sx) * np.count_nonzero(sy))
    step = max(1, 2 ** 22 // len(x) ** 2)
    out = np.empty(len(perms))
    for start in range(0, len(perms), step):
        p = perms[start: start + step]
        out[start: start + step] = np.einsum("ij,kij->k", sx, sy[p[:, :, None], p[:, None, :]])
    return out / denom


_STATISTICS = {"spearman": (spearman, _spearman_perms),
               "kendall": (kendall, _kendall_perms)}


def correlation_pvalue(x, y, statistic, n_perm: int = 10000, seed: int = 0) -> float:
    """Two-sided permutation p-value with add-one smoothing.

    ``statistic`` is 'spearman' or 'kendall' (or the function of that
    name).  All ``n_perm`` shuffles of y are scored at once; a shuffle
    counts as a hit when its |statistic| reaches |observed| - 1e-12, so
    rank statistics equal to the observed one count whatever their
    rounding.
    """
    if statistic in (spearman, kendall):
        statistic = statistic.__name__
    if statistic not in _STATISTICS:
        raise ContractViolation(f"unknown statistic {statistic!r}: use 'spearman' or 'kendall'")
    point, batched = _STATISTICS[statistic]
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) < 5 or n_perm < 1:
        raise ContractViolation(f"permutation test needs n >= 5 and n_perm >= 1, "
                                f"got {len(x)} and {n_perm}")
    observed = abs(point(x, y))
    rng = rng_mod.stream(seed, "correlation_pvalue")
    # shuffling an index array in place draws the same permutations as
    # shuffling y itself, one after another
    perms = np.empty((n_perm, len(y)), dtype=np.intp)
    order = np.arange(len(y))
    for row in perms:
        rng.shuffle(order)
        row[:] = order
    hits = int(np.count_nonzero(np.abs(batched(x, y, perms)) >= observed - 1e-12))
    return (1 + hits) / (n_perm + 1)


def is_significant(p: float) -> bool:
    return p <= SIGNIFICANCE_LEVEL


def recall_at_k(a_c, selected, k: int) -> float:
    """Fraction of human-selected aspects inside the top-k confidences.

    Confidence ties resolve toward the lower aspect index.
    """
    a_c = np.asarray(a_c, dtype=np.float64)
    chosen = set(int(i) for i in selected)
    if not chosen:
        raise ContractViolation("selected aspect set is empty")
    if not 1 <= k <= len(a_c):
        raise ContractViolation(f"k={k} outside [1, {len(a_c)}]")
    if any(i < 0 or i >= len(a_c) for i in chosen):
        raise ContractViolation("selected aspect index out of range")
    top = set(np.argsort(-a_c, kind="stable")[:k].tolist())
    return len(top & chosen) / len(chosen)


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i: i + n]) for i in range(len(tokens) - n + 1))


def bleu_avg(hypothesis: list[str], references: list[list[str]]) -> float:
    """Mean of BLEU-1..4 (per-order precision x brevity penalty).

    Modified n-gram precision clips counts against the best reference;
    zero-match orders for n >= 2 get add-one smoothing; orders the
    hypothesis is too short to form are skipped.
    """
    if not hypothesis:
        raise ContractViolation("empty hypothesis")
    refs = [list(r) for r in references]
    if not refs or any(not r for r in refs):
        raise ContractViolation("empty reference set")
    c = len(hypothesis)
    r = min((len(ref) for ref in refs),
            key=lambda L: (abs(L - c), L))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    scores = []
    for n in range(1, 5):
        hyp_counts = _ngram_counts(hypothesis, n)
        total = sum(hyp_counts.values())
        if total == 0:
            continue
        max_ref = Counter()
        for ref in refs:
            for gram, cnt in _ngram_counts(ref, n).items():
                if cnt > max_ref[gram]:
                    max_ref[gram] = cnt
        matches = sum(min(cnt, max_ref[gram]) for gram, cnt in hyp_counts.items())
        if matches == 0 and n >= 2:
            precision = 1.0 / (total + 1.0)
        else:
            precision = matches / total
        scores.append(bp * precision)
    return float(np.mean(scores))


def _lcs_length(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for tok in a:
        cur = [0] * (len(b) + 1)
        for j, other in enumerate(b, start=1):
            if tok == other:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge(hypothesis: list[str], reference: list[str]) -> float:
    """ROUGE-L F1 over token sequences."""
    if not hypothesis or not reference:
        raise ContractViolation("rouge needs non-empty inputs")
    lcs = _lcs_length(list(hypothesis), list(reference))
    if lcs == 0:
        return 0.0
    precision = lcs / len(hypothesis)
    recall = lcs / len(reference)
    return 2.0 * precision * recall / (precision + recall)


def corpus_perplexity(model, items) -> float:
    """exp of the token-weighted mean NLL over (story, aspect, comment) items."""
    items = list(items)
    if not items:
        raise ContractViolation("empty comment corpus")
    stories, aspects, comments = zip(*items)
    total = 0.0
    with ad.no_grad():
        for group, _, states, lengths, picks in model.encoded(stories):
            total += float(model.encoded_comment_nll(
                states, lengths, picks, [aspects[i] for i in group],
                [comments[i] for i in group], "sum").data)
    return math.exp(total / sum(len(c) - 1 for c in comments))


@dataclass
class MetricReport:
    """Aggregated evaluation results; unset fields mean 'not evaluated'."""

    acc: float | None = None
    dis: float | None = None
    rho: float | None = None
    rho_p: float | None = None
    tau: float | None = None
    tau_p: float | None = None
    recall: dict[int, float] = field(default_factory=dict)
    bleu: float | None = None
    rouge_l: float | None = None
    ppl: float | None = None

    def __post_init__(self):
        for name in ("acc",):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ContractViolation(f"{name} outside [0,1]")
        for name in ("rho", "tau"):
            v = getattr(self, name)
            if v is not None and not -1.0 - 1e-12 <= v <= 1.0 + 1e-12:
                raise ContractViolation(f"{name} outside [-1,1]")
        for k, v in self.recall.items():
            if not 0.0 <= v <= 1.0:
                raise ContractViolation(f"recall@{k} outside [0,1]")

    def to_dict(self) -> dict:
        out = {}
        for name in ("acc", "dis", "rho", "rho_p", "tau", "tau_p", "bleu",
                     "rouge_l", "ppl"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        for k in sorted(self.recall):
            out[f"recall@{k}"] = self.recall[k]
        return out


def render_report(report: MetricReport) -> str:
    """Plain-text table of whichever metrics the report carries.

    Correlations get a trailing '*' when their permutation p-value is at
    or below 0.01.
    """
    rows: list[tuple[str, str]] = []

    def fmt(v):
        return f"{v:.4f}"

    if report.acc is not None:
        rows.append(("Acc", fmt(report.acc)))
    if report.dis is not None:
        rows.append(("Dis", fmt(report.dis)))
    for name, value, p in (("Spearman", report.rho, report.rho_p),
                           ("Kendall", report.tau, report.tau_p)):
        if value is None:
            continue
        star = "*" if p is not None and is_significant(p) else ""
        suffix = f" (p={p:.4f})" if p is not None else ""
        rows.append((name, fmt(value) + star + suffix))
    for k in sorted(report.recall):
        rows.append((f"R@{k}", fmt(report.recall[k])))
    if report.bleu is not None:
        rows.append(("BLEU1-4", fmt(report.bleu)))
    if report.rouge_l is not None:
        rows.append(("ROUGE-L", fmt(report.rouge_l)))
    if report.ppl is not None:
        rows.append(("PPL", fmt(report.ppl)))
    if not rows:
        return "(no metrics evaluated)\n"
    width = max(len(name) for name, _ in rows)
    lines = [f"{name:<{width}}  {value}" for name, value in rows]
    return "\n".join(lines) + "\n"
