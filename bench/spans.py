"""Outside-in span tracing of the storyeval layers.

The tracer wraps the public functions of each ``storyeval`` module from
here, without editing the package: every wrapped call records one span
(name, start, end, parent span, request id).  Autodiff ops additionally
wrap the ``_backward`` closure of the node they return, so backward time
is charged to the op that built the node.

A wrap target that no longer exists, or that the workload never calls,
is reported as absent; the run goes on.  This keeps the trace valid
after refactors that delete, rename or fuse functions.

Spans stay in memory while the workload runs and are written out once
at the end.
"""

import functools
import gzip
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (span name, module, attribute path).  The span name's first component
# is the layer; each module of the package is one layer.  Only calls whose
# span feeds a metric, an observer or a request are wrapped: the time of
# an unwrapped call stays in the self time of the span that encloses it.
AUTODIFF_OPS = ("add", "mul", "power", "matmul", "reshape", "swapaxes", "take",
                "concat", "sum_", "mean", "exp", "log", "sqrt", "relu",
                "sigmoid", "clamp_min", "softmax", "log_softmax", "embedding",
                "gather_last", "layer_norm", "dropout")
# the ops reported one by one; the rest are summed as autodiff.other_ops
REPORTED_OPS = ("matmul", "softmax", "log_softmax", "layer_norm", "embedding",
                "gather_last", "take", "swapaxes", "reshape", "add", "mul",
                "relu", "sigmoid")

TARGETS = (
    [(f"autodiff.{op.rstrip('_')}", "storyeval.autodiff", op) for op in AUTODIFF_OPS]
    + [
        ("autodiff.backward", "storyeval.autodiff", "Tensor.backward"),
        ("model.encode", "storyeval.model", "encode"),
        ("model.decoder_logits", "storyeval.model", "decoder_logits"),
        ("model.window_mask", "storyeval.model", "window_mask"),
        ("model.causal_mask", "storyeval.model", "causal_mask"),
        ("model.cross_mask", "storyeval.model", "cross_mask"),
        ("model.generate_comment", "storyeval.model", "Model.generate_comment"),
        ("losses.margin_rank_loss", "storyeval.losses", "margin_rank_loss"),
        ("losses.coherence_rank_loss", "storyeval.losses", "coherence_rank_loss"),
        ("losses.confidence_loss", "storyeval.losses", "confidence_loss"),
        ("losses.confidence_loss_ex", "storyeval.losses", "confidence_loss_ex"),
        ("losses.rating_loss", "storyeval.losses", "rating_loss"),
        ("losses.sequence_nll", "storyeval.losses", "sequence_nll"),
        ("losses.discrimination_loss", "storyeval.losses", "discrimination_loss"),
        ("losses.joint_loss", "storyeval.losses", "joint_loss"),
        ("optim.adamw_step", "storyeval.optim", "AdamW.step"),
        ("training.train_step", "storyeval.training", "Trainer.train_step"),
        ("training.evaluate_pairs", "storyeval.training", "evaluate_pairs"),
        ("training.score_texts", "storyeval.training", "score_texts"),
        ("checkpoint.save", "storyeval.checkpoint", "save_checkpoint"),
        ("checkpoint.load", "storyeval.checkpoint", "load_checkpoint"),
        ("vocab.tokenize", "storyeval.vocab", "tokenize"),
        ("vocab.pad_batch", "storyeval.vocab", "pad_batch"),
        ("vocab.build_vocab", "storyeval.vocab", "build_vocab"),
        ("jsonl.read", "storyeval.jsonl", "read_jsonl"),
        ("jsonl.write", "storyeval.jsonl", "write_jsonl"),
        ("jsonl.write_json", "storyeval.jsonl", "write_json"),
        ("metrics.correlation_pvalue", "storyeval.metrics", "correlation_pvalue"),
        ("metrics.corpus_perplexity", "storyeval.metrics", "corpus_perplexity"),
        ("metrics.bleu", "storyeval.metrics", "bleu_avg"),
        ("metrics.rouge", "storyeval.metrics", "rouge"),
        ("aspects.lda_fit", "storyeval.aspects", "lda_fit"),
        ("aspects.umass_coherence", "storyeval.aspects", "umass_coherence"),
        ("aspects.prepare_comment_docs", "storyeval.aspects", "prepare_comment_docs"),
    ]
)

# a request is one train step, one batch-scoring call, one LDA fit or one
# perplexity pass; a story handled by a CLI loop (score, evaluate) starts
# with its tokenize call directly under the command span
REQUEST_ROOTS = frozenset({"training.train_step", "training.score_texts",
                           "training.evaluate_pairs", "aspects.lda_fit",
                           "metrics.corpus_perplexity"})
STORY_START = "vocab.tokenize"
STORY_LOOPS = frozenset({"cli.score", "cli.evaluate"})
CLI_COMMANDS = ("train", "compare", "score", "evaluate", "extract-aspects")


class Tracer:
    """In-memory span recorder plus the exact counters derived at wrap sites."""

    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, end, parent, request)
        self._stack: list[tuple] = []    # (span index, name, request)
        self._next_request = 1
        self._story_request = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def inside(self, name: str) -> bool:
        return any(entry[1] == name for entry in self._stack)

    def _request_for(self, name: str, parent_name: str | None) -> int:
        if self._stack and self._stack[-1][2]:
            return self._stack[-1][2]
        in_loop = parent_name in STORY_LOOPS
        if name in REQUEST_ROOTS or (name == STORY_START and in_loop):
            req = self._next_request
            self._next_request += 1
            self._story_request = req if name == STORY_START else 0
            return req
        return self._story_request if in_loop else 0

    def open(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        parent_name = self._stack[-1][1] if self._stack else None
        request = self._request_for(name, parent_name)
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append((idx, name, request))
        self.calls[name] += 1
        if name.startswith("cli."):
            self._story_request = 0
        return idx

    def close(self, idx: int, start: float) -> None:
        end = time.perf_counter()
        _, name, request = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, request)

    def span(self, name: str):
        tracer = self

        class _Span:
            def __enter__(self):
                self.idx = tracer.open(name)
                self.start = time.perf_counter()

            def __exit__(self, *exc):
                tracer.close(self.idx, self.start)
                return False

        return _Span()

    def _wrap(self, name: str, fn, observe=None, op: bool = False):
        tracer = self
        bwd_name = name + ".bwd"

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx, start)
            if op:
                back = getattr(out, "_backward", None)
                if back is not None and not getattr(back, "_bench_traced", False):
                    out._backward = tracer._wrap_backward(bwd_name, back)
            if observe is not None:
                observe(tracer, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_backward(self, name: str, back):
        tracer = self

        def traced_backward(g):
            idx = tracer.open(name)
            start = time.perf_counter()
            try:
                return back(g)
            finally:
                tracer.close(idx, start)

        traced_backward._bench_traced = True
        return traced_backward

    # -- install / remove -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; remember the ones that do not."""
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "storyeval" or n.startswith("storyeval.")]
        for name, module_name, path in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            op = name.startswith("autodiff.") and name != "autodiff.backward"
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(name, original.__func__,
                                                    OBSERVERS.get(name)))
            else:
                wrapped = self._wrap(name, original, OBSERVERS.get(name), op=op)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if outer:
                continue
            # names bound by ``from module import fn`` elsewhere in the package
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- output ------------------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start, 7), round(end, 7),
                                     parent, request]) + "\n")


# -- counters recorded at wrap sites --------------------------------------------

@functools.lru_cache(maxsize=64)
def _band_counts(t: int, window: int, n_global: int) -> np.ndarray:
    """counts[L-1, L-1]: query/key pairs of an L-token input that attend."""
    i = np.arange(t)[:, None]
    j = np.arange(t)[None, :]
    useful = (np.abs(i - j) <= window) | (i < n_global) | (j < n_global)
    return useful.cumsum(0).cumsum(1)


def _obs_encode(tr: Tracer, args, kwargs, out) -> None:
    config, ids, lengths = args[1], args[2], args[3]
    n_global = kwargs.get("n_global", args[4] if len(args) > 4 else 1)
    tr.counters["encode.tokens"] += ids.size
    cum = _band_counts(ids.shape[1], config.window, n_global)
    per_item = cum[np.asarray(lengths) - 1, np.asarray(lengths) - 1]
    tr.counters["encode.band_entries"] += (float(per_item.sum()) * config.n_heads
                                          * config.n_enc_layers)
    if tr.inside("training.score_texts"):
        tr.counters["score_texts.batches"] += 1
        tr.counters["score_texts.items"] += ids.shape[0]


def _obs_softmax(tr: Tracer, args, kwargs, out) -> None:
    scores = args[0]
    if getattr(scores, "ndim", 0) == 4 and tr.inside("model.encode"):
        tr.counters["encode.softmax_entries"] += scores.data.size


def _obs_decoder_logits(tr: Tracer, args, kwargs, out) -> None:
    if tr.inside("model.generate_comment"):
        tr.counters["decode.positions"] += np.asarray(args[2]).size


def _obs_generate(tr: Tracer, args, kwargs, out) -> None:
    tr.counters["decode.tokens"] += len(out)


def _obs_save(tr: Tracer, args, kwargs, out) -> None:
    path = Path(args[0])
    if path.exists():
        tr.counters["checkpoint.bytes"] += path.stat().st_size


def _obs_lda(tr: Tracer, args, kwargs, out) -> None:
    docs = args[0]
    tr.counters["lda.tokens"] += sum(len(d) for d in docs)
    tr.counters["lda.sweeps"] += kwargs.get("iterations", args[5] if len(args) > 5 else 500)


OBSERVERS = {
    "model.encode": _obs_encode,
    "autodiff.softmax": _obs_softmax,
    "model.decoder_logits": _obs_decoder_logits,
    "model.generate_comment": _obs_generate,
    "checkpoint.save": _obs_save,
    "aspects.lda_fit": _obs_lda,
}


# -- per-layer metrics ---------------------------------------------------------------

def _percentile_tail(values: list[float]) -> tuple[float, float]:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    best = 50.0
    for p in (75.0, 90.0, 95.0, 99.0):
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    return best, float(np.percentile(values, best)) if values else 0.0


def layer_metrics(tracer: Tracer, untraced: list[float],
                  traced: list[float]) -> tuple[dict, list]:
    """Per-cycle self times and exact counts; returns (metrics, absent names).

    ``untraced`` and ``traced`` are the cycle wall times in run order; the
    loop alternates them, so ``untraced[i]`` ran just before ``traced[i]``.
    Every span's self time goes into exactly one ``ms`` metric, so those
    metrics plus ``other.ms`` add up to the traced cycle.
    """
    spans = tracer.spans
    n = max(len(traced), 1)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    step_ms: list[float] = []
    step_requests: set[int] = set()
    for i, (name, start, end, parent, request) in enumerate(spans):
        self_s[name] += end - start - child[i]
        incl_s[name] += end - start
        if name == "training.train_step":
            step_ms.append((end - start) * 1e3)
            step_requests.add(request)
    step_nodes = sum(1 for name, _, _, _, request in spans
                     if request in step_requests and name.startswith("autodiff.")
                     and not name.endswith(".bwd") and name != "autodiff.backward")
    calls = tracer.calls
    cnt = tracer.counters

    reported: set[str] = set()

    def ms(*names) -> float:
        reported.update(names)
        return 1e3 * sum(self_s.get(x, 0.0) for x in names) / n

    def per_cycle(x) -> float:
        return x / n

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for op in REPORTED_OPS:
        m[f"autodiff.{op}.fwd_ms"] = (ms(f"autodiff.{op}"), "ms")
        m[f"autodiff.{op}.bwd_ms"] = (ms(f"autodiff.{op}.bwd"), "ms")
        m[f"autodiff.{op}.calls"] = (per_cycle(calls.get(f"autodiff.{op}", 0)), "count")
    others = [op.rstrip("_") for op in AUTODIFF_OPS if op.rstrip("_") not in REPORTED_OPS]
    m["autodiff.other_ops.fwd_ms"] = (ms(*[f"autodiff.{op}" for op in others]), "ms")
    m["autodiff.other_ops.bwd_ms"] = (ms(*[f"autodiff.{op}.bwd" for op in others]), "ms")
    m["autodiff.backward_ms"] = (1e3 * incl_s.get("autodiff.backward", 0.0) / n, "ms")
    m["autodiff.graph_walk_ms"] = (ms("autodiff.backward"), "ms")
    m["autodiff.nodes_per_step"] = (ratio(step_nodes, len(step_ms)), "count")

    m["model.encode.ms"] = (ms("model.encode"), "ms")
    m["model.encode.calls"] = (per_cycle(calls.get("model.encode", 0)), "count")
    m["model.encode.tokens"] = (per_cycle(cnt["encode.tokens"]), "count")
    m["model.attn_band_ratio"] = (ratio(cnt["encode.band_entries"],
                                        cnt["encode.softmax_entries"]), "ratio")
    m["model.masks.ms"] = (ms("model.window_mask", "model.causal_mask",
                              "model.cross_mask"), "ms")
    m["model.decoder_logits.ms"] = (ms("model.decoder_logits"), "ms")
    m["model.decoder_logits.calls"] = (per_cycle(calls.get("model.decoder_logits", 0)),
                                       "count")
    m["model.decode_positions_per_token"] = (ratio(cnt["decode.positions"],
                                                   cnt["decode.tokens"]), "count")
    m["model.generate_comment.ms"] = (ms("model.generate_comment"), "ms")

    m["losses.ms"] = (ms(*[x for x in self_s if x.startswith("losses.")]), "ms")
    m["optim.adamw_step.ms"] = (ms("optim.adamw_step"), "ms")
    m["optim.adamw_step.calls"] = (per_cycle(calls.get("optim.adamw_step", 0)), "count")

    _, tail_ms = _percentile_tail(step_ms)
    m["training.train_step.ms_p50"] = (float(np.median(step_ms)) if step_ms else 0.0, "ms")
    m["training.train_step.ms_tail"] = (tail_ms, "ms")
    m["training.train_step.samples"] = (float(len(step_ms)), "count")
    m["training.train_step.self_ms"] = (ms("training.train_step"), "ms")
    m["training.evaluate_pairs.ms"] = (ms("training.evaluate_pairs"), "ms")
    m["training.score_texts.ms"] = (ms("training.score_texts"), "ms")
    m["training.score_texts.batch_mean"] = (ratio(cnt["score_texts.items"],
                                                  cnt["score_texts.batches"]), "count")

    saves = calls.get("checkpoint.save", 0)
    m["checkpoint.save.ms"] = (ms("checkpoint.save"), "ms")
    m["checkpoint.save.calls"] = (per_cycle(saves), "count")
    m["checkpoint.bytes_written"] = (ratio(cnt["checkpoint.bytes"], saves), "B")
    m["checkpoint.load.ms"] = (ms("checkpoint.load"), "ms")

    m["vocab.tokenize.ms"] = (ms("vocab.tokenize"), "ms")
    m["vocab.pad_batch.ms"] = (ms("vocab.pad_batch"), "ms")
    m["vocab.build_vocab.ms"] = (ms("vocab.build_vocab"), "ms")
    m["jsonl.read.ms"] = (ms("jsonl.read"), "ms")
    m["jsonl.write.ms"] = (ms("jsonl.write", "jsonl.write_json"), "ms")

    m["metrics.correlation_pvalue.ms"] = (ms("metrics.correlation_pvalue"), "ms")
    m["metrics.corpus_perplexity.ms"] = (ms("metrics.corpus_perplexity"), "ms")
    m["metrics.bleu_rouge.ms"] = (ms("metrics.bleu", "metrics.rouge"), "ms")

    fits = calls.get("aspects.lda_fit", 0)
    m["aspects.lda_fit.ms"] = (ms("aspects.lda_fit"), "ms")
    m["aspects.lda_fit.calls"] = (per_cycle(fits), "count")
    m["aspects.sweep_ms"] = (ratio(1e3 * incl_s.get("aspects.lda_fit", 0.0),
                                   cnt["lda.sweeps"]), "ms")
    m["aspects.tokens"] = (ratio(cnt["lda.tokens"], fits), "count")
    m["aspects.umass_coherence.ms"] = (ms("aspects.umass_coherence"), "ms")
    m["aspects.prepare_comment_docs.ms"] = (ms("aspects.prepare_comment_docs"), "ms")

    for command in CLI_COMMANDS:
        m[f"cli.{command}.self_ms"] = (ms(f"cli.{command}"), "ms")
    m["other.ms"] = (1e3 * (sum(traced) - sum(self_s.get(x, 0.0) for x in reported)) / n, "ms")
    m["trace.spans"] = (per_cycle(len(spans)), "count")
    m["trace.untraced_cycle_s"] = (float(np.median(untraced)), "s")
    m["trace.traced_cycle_s"] = (float(np.median(traced)), "s")
    # the host drifts, so compare each traced cycle with the untraced one
    # just before it and take the median of those pairs
    m["trace.overhead_ratio"] = (float(np.median([t / u for u, t in zip(untraced, traced)])),
                                 "ratio")

    called = set(calls)
    absent = sorted(set(tracer.missing)
                    | {name for name, _, _ in TARGETS if name not in called})
    absent += [f"cli.{c}" for c in CLI_COMMANDS if f"cli.{c}" not in called]
    for key, (value, _) in m.items():
        if not math.isfinite(value):
            m[key] = (0.0, m[key][1])
    return m, absent
