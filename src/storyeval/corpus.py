"""Story corpus pipeline: filtering, pairing, splitting, negatives.

Raw stories arrive as JSONL records {id, prompt_id, prompt, text,
upvotes, created_at, comments[]}.  The pipeline keeps mid-length stories
outside a recency-exclusion window, pairs every highly-voted story with
every lowly-voted one under the same prompt, splits by prompt so no
prompt leaks across train/val/test, and synthesizes coherence-broken
negative stories by shuffling, repeating, or substituting.
"""

import datetime
import re
from dataclasses import dataclass, field

import numpy as np

from . import rng as rng_mod
from .errors import ContractViolation, DataError, StoryTooShortError

_SENTENCE_RE = re.compile(r"[^.!?]+[.!?]+|[^.!?]+$")

STOPWORDS = frozenset("""
a about above after again all am an and any are as at be because been
before being below between both but by could did do does doing down
during each few for from further had has have having he her here hers
him his how i if in into is it its just me more most my no nor not of
off on once only or other our out over own same she so some such than
that the their them then there these they this those through to too
under until up very was we were what when where which while who whom
why will with you your
""".split())

# replacement pool for the substitute perturbation; plain nouns/verbs so
# swapped-in words are grammatical surface noise, not topic signal
SWAP_WORDS = (
    "table river mountain candle mirror engine garden winter harbor lantern",
    "pebble meadow thunder anchor ribbon saddle chimney orchard valley ember",
    "walked carried painted whispered gathered folded measured planted",
    "dropped hammered watched lifted counted traded sealed wandered",
)
SWAP_WORDS = tuple(" ".join(SWAP_WORDS).split())


@dataclass
class Story:
    id: str
    prompt_id: str
    text: str
    upvotes: int
    created_at: str
    prompt: str = ""
    comments: list = field(default_factory=list)

    @property
    def word_count(self) -> int:
        return len(self.text.split())

    def to_record(self) -> dict:
        return {
            "id": self.id, "prompt_id": self.prompt_id, "prompt": self.prompt,
            "text": self.text, "upvotes": self.upvotes,
            "created_at": self.created_at, "comments": self.comments,
        }


@dataclass(frozen=True)
class RankedPair:
    prompt_id: str
    high_id: str
    low_id: str

    def to_record(self) -> dict:
        return {"prompt_id": self.prompt_id, "high_id": self.high_id,
                "low_id": self.low_id}


@dataclass
class NegativeStory:
    source_story_id: str
    kind: str
    text: str

    def to_record(self) -> dict:
        return {"source_story_id": self.source_story_id, "kind": self.kind,
                "text": self.text}


def _parse_date(value: str) -> datetime.date:
    return datetime.date.fromisoformat(value)


def parse_stories(records: list[dict]) -> tuple[list[Story], list[dict]]:
    """Build Story objects, collecting malformed records as rejects."""
    stories, rejects = [], []
    for i, rec in enumerate(records):
        try:
            story = Story(
                id=str(rec["id"]), prompt_id=str(rec["prompt_id"]),
                text=str(rec["text"]), upvotes=int(rec["upvotes"]),
                created_at=str(rec["created_at"]),
                prompt=str(rec.get("prompt", "")),
                comments=list(rec.get("comments", [])),
            )
            _parse_date(story.created_at)
            if not story.text.strip():
                raise ValueError("empty text")
            stories.append(story)
        except (KeyError, TypeError, ValueError) as e:
            rejects.append({"index": i, "id": str(rec.get("id", "?")),
                            "reason": f"malformed: {e}"})
    return stories, rejects


def filter_stories(stories: list[Story], min_words: int = 200, max_words: int = 800,
                   exclude_from: str | None = None, exclude_to: str | None = None,
                   ) -> tuple[list[Story], list[dict]]:
    """Word-count band (inclusive) plus a date exclusion window.

    Stories created inside [exclude_from, exclude_to] are dropped; pass
    None for either bound to disable the window.  Order is preserved.
    """
    lo = _parse_date(exclude_from) if exclude_from else None
    hi = _parse_date(exclude_to) if exclude_to else None
    kept, rejects = [], []
    for s in stories:
        wc = s.word_count
        if wc < min_words:
            rejects.append({"id": s.id, "reason": "too_short", "word_count": wc})
            continue
        if wc > max_words:
            rejects.append({"id": s.id, "reason": "too_long", "word_count": wc})
            continue
        created = _parse_date(s.created_at)
        inside = ((lo is None or created >= lo) and (hi is None or created <= hi)
                  and not (lo is None and hi is None))
        if inside:
            rejects.append({"id": s.id, "reason": "excluded_date",
                            "created_at": s.created_at})
            continue
        kept.append(s)
    return kept, rejects


def build_pairs(stories: list[Story], high_min: int = 50, low_max: int = 0,
                max_pairs_per_prompt: int | None = None) -> list[RankedPair]:
    """Cartesian high x low pairing per prompt.

    Stories with upvotes strictly between ``low_max`` and ``high_min``
    belong to neither side.  ``max_pairs_per_prompt`` truncates each
    prompt's pair list deterministically (the published pair counts
    imply some cap, but none is specified).
    """
    by_prompt: dict[str, tuple[list[Story], list[Story]]] = {}
    for s in stories:
        highs, lows = by_prompt.setdefault(s.prompt_id, ([], []))
        if s.upvotes >= high_min:
            highs.append(s)
        elif s.upvotes <= low_max:
            lows.append(s)
    pairs = []
    for prompt_id in sorted(by_prompt):
        highs, lows = by_prompt[prompt_id]
        per_prompt = [RankedPair(prompt_id, h.id, l.id) for h in highs for l in lows]
        if max_pairs_per_prompt is not None:
            per_prompt = per_prompt[:max_pairs_per_prompt]
        pairs.extend(per_prompt)
    return pairs


def split_by_prompt(pairs: list[RankedPair], ratios=(0.8, 0.1, 0.1),
                    seed: int = 0) -> dict[str, list[RankedPair]]:
    """Partition prompts into train/val/test (train/val for two ``ratios``)
    by seeded shuffle.

    Split sizes follow largest-remainder rounding of ``ratios``, two or
    three shares >= 0 summing to 1.  Pair
    lists are sorted, so the result depends only on (pairs-as-set, seed).
    """
    if len(ratios) not in (2, 3) or not min(ratios) >= 0 or not abs(sum(ratios) - 1) <= 1e-9:
        raise ContractViolation(f"ratios must be 2 or 3 numbers >= 0 summing to 1, got {ratios}")
    names = ("train", "val", "test")[: len(ratios)]
    prompts = sorted({p.prompt_id for p in pairs})
    if len(prompts) < len(ratios):
        raise ContractViolation(
            f"{len(prompts)} prompts cannot fill {len(ratios)} splits")
    order = list(prompts)
    rng_mod.stream(seed, "split_by_prompt").shuffle(order)

    n = len(order)
    quotas = [r * n for r in ratios]
    sizes = [int(q) for q in quotas]
    short = n - sum(sizes)
    remainders = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in remainders[:short]:
        sizes[i] += 1

    assignment: dict[str, str] = {}
    start = 0
    for name, size in zip(names, sizes):
        for prompt_id in order[start: start + size]:
            assignment[prompt_id] = name
        start += size

    out: dict[str, list[RankedPair]] = {name: [] for name in names}
    for pair in sorted(pairs, key=lambda p: (p.prompt_id, p.high_id, p.low_id)):
        out[assignment[pair.prompt_id]].append(pair)
    return out


def corpus_stats(splits: dict[str, list[RankedPair]],
                 stories: list[Story]) -> dict:
    """Per-split counts and mean word lengths for the stats report."""
    by_id = {s.id: s for s in stories}
    report = {}
    for name, pairs in splits.items():
        highs = sorted({p.high_id for p in pairs})
        lows = sorted({p.low_id for p in pairs})
        high_wc = [by_id[i].word_count for i in highs if i in by_id]
        low_wc = [by_id[i].word_count for i in lows if i in by_id]
        report[name] = {
            "prompts": len({p.prompt_id for p in pairs}),
            "high_stories": len(highs),
            "low_stories": len(lows),
            "pairs": len(pairs),
            "mean_words_high": round(float(np.mean(high_wc)), 2) if high_wc else 0.0,
            "mean_words_low": round(float(np.mean(low_wc)), 2) if low_wc else 0.0,
        }
    return report


def sentences(text: str) -> list[str]:
    """Terminator-delimited segments; an unterminated tail counts too."""
    return [m.strip() for m in _SENTENCE_RE.findall(text) if m.strip()]


def _within_band(n_words: int, source_words: int, tolerance: float = 0.2) -> bool:
    return abs(n_words - source_words) <= tolerance * source_words


def _shuffle_negative(parts: list[str], rng: np.random.Generator) -> str:
    idx = np.arange(len(parts))
    for _ in range(100):
        perm = rng.permutation(idx)
        if not np.array_equal(perm, idx):
            return " ".join(parts[i] for i in perm)
    raise DataError("could not find a non-identity permutation")


def _repeat_negative(parts: list[str], rng: np.random.Generator,
                     source_words: int) -> str:
    feasible = []
    for i in range(len(parts)):
        for m in (2, 3, 4):
            if i + m > len(parts):
                continue
            cand = parts[:i] + [parts[i]] * m + parts[i + m:]
            text = " ".join(cand)
            if cand != parts and _within_band(len(text.split()), source_words):
                feasible.append(text)
    if not feasible:
        raise DataError("no repeat perturbation stays within the word band")
    return feasible[int(rng.integers(len(feasible)))]


def _substitute_negative(text: str, rng: np.random.Generator) -> str:
    tokens = text.split()
    swappable = [i for i, t in enumerate(tokens)
                 if re.sub(r"\W", "", t.lower()) not in STOPWORDS
                 and re.search(r"\w", t)]
    if not swappable:
        raise DataError("no substitutable tokens")
    n_swap = max(1, round(0.15 * len(swappable)))
    chosen = rng.choice(len(swappable), size=min(n_swap, len(swappable)), replace=False)
    for pos in sorted(int(c) for c in chosen):
        i = swappable[pos]
        old = tokens[i]
        # keep trailing punctuation attached to the swapped word
        stripped = old.rstrip(".,!?;:\"'")
        tail = old[len(stripped):]
        new = stripped
        while new == stripped:
            new = SWAP_WORDS[int(rng.integers(len(SWAP_WORDS)))]
        tokens[i] = new + tail
    return " ".join(tokens)


def generate_negative(story: Story, kind: str, seed: int) -> NegativeStory:
    """Perturb a story into a coherence-broken negative.

    Deterministic per (story id, kind, seed).  Raises
    StoryTooShortError below 4 sentences.
    """
    parts = sentences(story.text)
    if len(parts) < 4:
        raise StoryTooShortError(
            f"story {story.id} has {len(parts)} sentences; need >= 4")
    rng = rng_mod.stream(seed, f"negative:{kind}:{story.id}")
    if kind == "shuffle":
        text = _shuffle_negative(parts, rng)
    elif kind == "repeat":
        text = _repeat_negative(parts, rng, story.word_count)
    elif kind == "substitute":
        text = _substitute_negative(story.text, rng)
    else:
        raise ContractViolation(f"unknown perturbation kind '{kind}'")
    if text == story.text:
        raise DataError(f"perturbation produced the source text for {story.id}")
    if not _within_band(len(text.split()), story.word_count):
        raise DataError(f"perturbed word count strays beyond 20% for {story.id}")
    return NegativeStory(source_story_id=story.id, kind=kind, text=text)
