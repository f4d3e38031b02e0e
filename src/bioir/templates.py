"""Template-based question generation.

Questions become reusable templates by blanking out rare entities; templates
cluster by token-bag similarity; a representative per cluster forms the pool.
New questions come from ranking pool templates against a context and filling
their blanks with entities tagged in that context.

A blank is a whitespace token whose bare form is "_" (surrounding punctuation
tolerated, so "_?" is a blank while "GENE_X" is not). Replacing an entity span
keeps the leading punctuation of its first token and the trailing punctuation
of its last, so re-inserting the entity surface at the blank reconstructs the
original question exactly.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from . import ConfigError, DataError
from .corpus import CorpusStats, Segment, UnitKind, read_jsonl, str_field, tokenize, write_jsonl
from .lexical import bm25_scores, build_index
from .pretrain import TASK_TEMPQG, TrainingPair

_PUNCT = string.punctuation
_PUNCT_KEEP_BLANK = _PUNCT.replace("_", "")

DEFAULT_DF_THRESHOLD = 5
DEFAULT_CLUSTER_THRESHOLD = 0.75
DEFAULT_POOL_SIZE = 10

BLANK = "_"


def _split_token(raw: str) -> tuple[str, str, str]:
    """Split a whitespace token into (leading punctuation, core, trailing punctuation)."""
    start = 0
    end = len(raw)
    while start < end and raw[start] in _PUNCT:
        start += 1
    while end > start and raw[end - 1] in _PUNCT:
        end -= 1
    return raw[:start], raw[start:end], raw[end:]


def _is_blank(raw: str) -> bool:
    return raw.strip(_PUNCT_KEEP_BLANK) == BLANK


@dataclass
class EntitySpan:
    start: int
    end: int
    surface: str
    is_verb: bool
    from_lexicon: bool

    def __post_init__(self):
        if self.end <= self.start:
            raise DataError("entity span must cover at least one token")


@dataclass
class EntityLexicon:
    """Normalized surface -> verb flag. Surfaces may span several tokens."""

    entries: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        normalized = {}
        for surface, is_verb in self.entries.items():
            key = " ".join(tokenize(surface))
            if not key:
                raise DataError(f"lexicon surface '{surface}' normalizes to nothing")
            normalized[key] = bool(is_verb)
        self.entries = normalized
        self.max_tokens = max((len(k.split()) for k in self.entries), default=0)

    def __contains__(self, normalized_surface: str) -> bool:
        return normalized_surface in self.entries

    def is_verb(self, normalized_surface: str) -> bool:
        return self.entries[normalized_surface]

    @classmethod
    def load(cls, path: str) -> "EntityLexicon":
        """Read "surface<TAB>verb|noun" lines; blank lines and # comments skipped."""
        entries = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or parts[1] not in ("verb", "noun"):
                    raise DataError(f"{path}:{lineno}: expected 'surface<TAB>verb|noun'")
                entries[parts[0]] = parts[1] == "verb"
        return cls(entries)


def tag_entities(question: str, lexicon: EntityLexicon) -> list[EntitySpan]:
    """Tag entity spans in a question.

    Lexicon matches are longest-match per start position; heuristics add runs
    of two or more capitalized tokens and single tokens mixing digits and
    letters. Overlaps resolve longest-first then leftmost-first, preferring
    the lexicon over a heuristic on an exact tie.
    """
    raws = question.split()
    parts = [_split_token(r) for r in raws]
    norms = [core.lower() for _, core, _ in parts]

    candidates: list[EntitySpan] = []

    def surface_of(start: int, end: int) -> str:
        chunk = " ".join(raws[start:end])
        pre, _, _ = parts[start]
        _, _, post = parts[end - 1]
        stop = len(chunk) - len(post)
        return chunk[len(pre):stop]

    for start in range(len(raws)):
        if not norms[start]:
            continue
        for length in range(min(lexicon.max_tokens, len(raws) - start), 0, -1):
            window = norms[start : start + length]
            if any(not w for w in window):
                continue
            key = " ".join(window)
            if key in lexicon:
                candidates.append(
                    EntitySpan(start, start + length, surface_of(start, start + length),
                               lexicon.is_verb(key), True)
                )
                break

    def capitalized(i: int) -> bool:
        core = parts[i][1]
        return bool(core) and core[0].isupper()

    # Runs never start at token 0: sentence-initial capitalization is
    # convention, not evidence of a name.
    i = 1
    while i < len(raws):
        if capitalized(i):
            j = i
            while j < len(raws) and capitalized(j):
                j += 1
            if j - i >= 2:
                candidates.append(EntitySpan(i, j, surface_of(i, j), False, False))
            i = j
        else:
            i += 1

    for i, norm in enumerate(norms):
        if any(c.isdigit() for c in norm) and any(c.isalpha() for c in norm):
            candidates.append(EntitySpan(i, i + 1, surface_of(i, i + 1), False, False))

    candidates.sort(key=lambda s: (-(s.end - s.start), s.start, not s.from_lexicon))
    taken = [False] * len(raws)
    resolved = []
    for span in candidates:
        if any(taken[i] for i in range(span.start, span.end)):
            continue
        for i in range(span.start, span.end):
            taken[i] = True
        resolved.append(span)
    resolved.sort(key=lambda s: s.start)
    return resolved


@dataclass
class Template:
    pattern: str
    source_question_ids: list[str] = field(default_factory=list)
    cluster_id: int | None = None

    def __post_init__(self):
        if not self.pattern.strip():
            raise DataError("template pattern must be non-empty")

    @property
    def blank_count(self) -> int:
        return sum(1 for tok in self.pattern.split() if _is_blank(tok))

    @property
    def token_length(self) -> int:
        return len(self.pattern.split())


def entity_df(span: EntitySpan, stats: CorpusStats) -> int:
    """Document frequency of an entity surface over the question corpus.

    Multi-token surfaces count units containing every token of the surface.
    """
    return stats.phrase_df(tokenize(span.surface))


def extract_template(
    question: str,
    entities: Sequence[EntitySpan],
    stats: CorpusStats,
    df_threshold: int = DEFAULT_DF_THRESHOLD,
    question_id: str | None = None,
) -> Template:
    """Blank out non-verb entities rarer than the threshold.

    A replaced span collapses to one token carrying the span's outer
    punctuation around "_". Entities at or above the threshold, and verbs,
    stay in place, which keeps extraction idempotent.
    """
    if df_threshold < 0:
        raise ConfigError(f"df threshold must be non-negative, got {df_threshold}")
    raws = question.split()
    replaced = sorted(
        (
            s
            for s in entities
            if not s.is_verb and entity_df(s, stats) < df_threshold
        ),
        key=lambda s: s.start,
    )
    out = []
    pos = 0
    for span in replaced:
        if span.start < pos:
            raise DataError("entity spans overlap")
        out.extend(raws[pos : span.start])
        pre, _, _ = _split_token(raws[span.start])
        _, _, post = _split_token(raws[span.end - 1])
        out.append(f"{pre}{BLANK}{post}")
        pos = span.end
    out.extend(raws[pos:])
    ids = [question_id] if question_id is not None else []
    return Template(pattern=" ".join(out), source_question_ids=ids)


def _pattern_bag(pattern: str, stats: CorpusStats | None) -> dict[str, float]:
    counts = Counter(tokenize(pattern))
    if stats is None:
        return {t: float(c) for t, c in counts.items()}
    n = stats.num_docs
    return {
        t: c * max(0.0, math.log(n / (1 + stats.df(t))))
        for t, c in counts.items()
    }


# A pattern's term bag and its squared norm.
WeightedBag = tuple[dict[str, float], float]


def _weighted_bag(pattern: str, stats: CorpusStats | None) -> WeightedBag:
    bag = _pattern_bag(pattern, stats)
    return bag, sum(v * v for v in bag.values())


def template_similarity(
    a: Template,
    b: Template,
    stats: CorpusStats | None = None,
    bags: tuple[WeightedBag, WeightedBag] | None = None,
) -> float:
    """Cosine over term bags of the patterns with blanks removed, clamped to [0, 1].

    Bags are plain term counts; passing corpus statistics weights them by
    idf (floored at zero). Two blank-only patterns score 0. `bags` passes in
    the `_weighted_bag` of a and b, computed with the same stats, so that a
    caller comparing each template many times builds its bag once.
    """
    (va, na), (vb, nb) = bags or (_weighted_bag(a.pattern, stats), _weighted_bag(b.pattern, stats))
    dot = sum(va[t] * vb.get(t, 0.0) for t in va)
    # One sqrt over the product keeps self-similarity at exactly 1.0.
    denom = math.sqrt(na * nb)
    if denom == 0.0:
        return 0.0
    return min(1.0, max(0.0, dot / denom))


def cluster_templates(
    templates: Sequence[Template],
    threshold: float = DEFAULT_CLUSTER_THRESHOLD,
    stats: CorpusStats | None = None,
) -> list[list[Template]]:
    """Greedy single-pass clustering in input order.

    A template joins the first cluster whose every member it matches at or
    above the threshold, else it opens a new cluster. cluster_id is set on
    each template. Each template's bag is built once, not once per comparison.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"cluster threshold must lie in [0, 1], got {threshold}")
    bags = [_weighted_bag(t.pattern, stats) for t in templates]
    clusters: list[list[int]] = []
    for i, tpl in enumerate(templates):
        for cid, members in enumerate(clusters):
            if all(
                template_similarity(tpl, templates[j], stats, bags=(bags[i], bags[j])) >= threshold
                for j in members
            ):
                tpl.cluster_id = cid
                members.append(i)
                break
        else:
            tpl.cluster_id = len(clusters)
            clusters.append([i])
    return [[templates[j] for j in members] for members in clusters]


def pick_representative(cluster: Sequence[Template], second_smallest: bool = False) -> Template:
    """Shortest pattern by token count, ties lexicographic.

    With second_smallest, the next template in that order is taken when the
    cluster has at least two members.
    """
    if not cluster:
        raise DataError("cannot pick a representative from an empty cluster")
    ranked = sorted(cluster, key=lambda t: (t.token_length, t.pattern))
    if second_smallest and len(ranked) > 1:
        return ranked[1]
    return ranked[0]


# A scorer ranks pool templates against a context: higher is more relevant.
TemplateScorer = Callable[[str, Sequence[Template]], list[float]]


class LexicalTemplateScorer:
    """BM25 over template patterns, context as the query. No model required.

    The pseudo-segment index is built once per pool: it is rebuilt only when
    the patterns differ from the previous call's. Every template gets a score,
    so the scores are read unranked; a template sharing no term scores 0.
    """

    def __init__(self):
        self._patterns: tuple[str, ...] | None = None
        self._index = None

    def __call__(self, context: str, templates: Sequence[Template]) -> list[float]:
        if not templates:
            return []
        patterns = tuple(t.pattern for t in templates)
        if patterns != self._patterns:
            self._index = build_index([
                Segment(f"tpl{i}", f"tpl{i}", 0, UnitKind.FULL_DOC, pattern)
                for i, pattern in enumerate(patterns)
            ])
            self._patterns = patterns
        scores = bm25_scores(self._index, context)
        return [scores.get(f"tpl{i}", 0.0) for i in range(len(patterns))]


class DenseTemplateScorer:
    """Max-similarity of the context's query vector against each template's codes.

    Template encodings are computed once per pool, like LexicalTemplateScorer's
    index.
    """

    def __init__(self, provider, codes, projection=None):
        self.provider = provider
        self.codes = codes
        self.projection = projection
        self._patterns: tuple[str, ...] | None = None
        self._encoded: list = []

    def __call__(self, context: str, templates: Sequence[Template]) -> list[float]:
        from .polydpr import encode_context, infer_similarity

        patterns = tuple(t.pattern for t in templates)
        if patterns != self._patterns:
            # None marks a pattern with no tokens, which scores 0.
            self._encoded = [
                encode_context(self.provider.token_vectors(pattern), self.codes)
                if tokenize(pattern) else None
                for pattern in patterns
            ]
            self._patterns = patterns
        v = self.provider.query_vector(context)
        if self.projection is not None:
            v = self.projection @ v
        return [0.0 if vectors is None else infer_similarity(v, vectors)
                for vectors in self._encoded]


def select_templates(
    context: str,
    pool: Sequence[Template],
    engine: TemplateScorer,
    n: int = DEFAULT_POOL_SIZE,
) -> list[Template]:
    """Top-n templates for a context, unique by pattern, ties by pattern text."""
    if n <= 0:
        raise ConfigError(f"template count must be positive, got {n}")
    scores = engine(context, pool)
    if len(scores) != len(pool):
        raise DataError("scorer returned a mismatched number of scores")
    best: dict[str, tuple[float, Template]] = {}
    for tpl, score in zip(pool, scores):
        kept = best.get(tpl.pattern)
        if kept is None or score > kept[0]:
            best[tpl.pattern] = (score, tpl)
    ranked = sorted(best.items(), key=lambda item: (-item[1][0], item[0]))
    return [tpl for _, (_, tpl) in ranked[:n]]


def _ranked_context_entities(context: str, lexicon: EntityLexicon) -> list[EntitySpan]:
    spans = tag_entities(context, lexicon)
    by_surface: dict[str, EntitySpan] = {}
    for span in spans:
        key = " ".join(tokenize(span.surface))
        kept = by_surface.get(key)
        if kept is None:
            by_surface[key] = span
        elif (not kept.from_lexicon and span.from_lexicon) or (
            kept.from_lexicon == span.from_lexicon
            and (span.end - span.start) > (kept.end - kept.start)
        ):
            by_surface[key] = span
    return sorted(
        by_surface.values(),
        key=lambda s: (not s.from_lexicon, -(s.end - s.start), s.start),
    )


def fill_template(
    template: Template,
    context: str,
    lexicon: EntityLexicon,
    entities: Sequence[EntitySpan] | None = None,
) -> str | None:
    """Fill blanks left to right with ranked distinct context entities.

    Ranking prefers lexicon hits, then longer spans, then earlier occurrence.
    `entities` passes in the context's `_ranked_context_entities`, so that a
    caller filling many templates against one context tags it once.
    Returns None when the blanks outnumber the available entities. The result
    starts with a capital and ends with "?".
    """
    if entities is None:
        entities = _ranked_context_entities(context, lexicon)
    toks = template.pattern.split()
    n_blanks = sum(1 for t in toks if _is_blank(t))
    if n_blanks > len(entities):
        return None
    out = []
    next_entity = 0
    for tok in toks:
        if _is_blank(tok):
            cut = tok.index(BLANK)
            out.append(f"{tok[:cut]}{entities[next_entity].surface}{tok[cut + 1:]}")
            next_entity += 1
        else:
            out.append(tok)
    question = " ".join(out).strip()
    question = question[:1].upper() + question[1:]
    if not question.endswith("?"):
        question += "?"
    return question


def generate_questions(
    context: str,
    pool: Sequence[Template],
    engine: TemplateScorer,
    lexicon: EntityLexicon,
    n_templates: int = DEFAULT_POOL_SIZE,
) -> list[str]:
    """Fill the context's top-ranked pool templates, dropping failed fills.

    The context's entities are tagged and ranked once for all its templates.
    """
    selected = select_templates(context, pool, engine, n_templates)
    entities = _ranked_context_entities(context, lexicon)
    questions = []
    for tpl in selected:
        question = fill_template(tpl, context, lexicon, entities=entities)
        if question is not None:
            questions.append(question)
    return questions


def build_tempqg_pairs(
    segments: Iterable[Segment],
    template_pool: Sequence[Template],
    engine: TemplateScorer,
    lexicon: EntityLexicon,
    n_templates: int = DEFAULT_POOL_SIZE,
) -> list[TrainingPair]:
    """Generated question -> segment text pairs.

    Per segment: generate questions, then drop duplicates. The segment text
    is the positive whether the segment is a two-sentence window (short
    contexts) or a full document (long).
    """
    return [
        TrainingPair(question, seg.text, TASK_TEMPQG, seg.doc_id)
        for seg in segments
        for question in dict.fromkeys(
            generate_questions(seg.text, template_pool, engine, lexicon, n_templates)
        )
    ]


# ---------------------------------------------------------------------------
# Template files: extraction dumps keep the source question ids; the clustered
# pool is {"pattern", "cluster_id"} JSONL.

def save_templates(path: str, templates: Iterable[Template]) -> None:
    write_jsonl(
        path,
        (
            {"pattern": t.pattern, "source_question_ids": t.source_question_ids}
            for t in templates
        ),
    )


def load_templates(path: str) -> list[Template]:
    out = []
    for lineno, obj in read_jsonl(path):
        pattern = str_field(obj, "pattern", path, lineno, "template")
        out.append(Template(pattern, list(obj.get("source_question_ids", []))))
    return out


def save_pool(path: str, pool: Iterable[Template]) -> None:
    write_jsonl(path, ({"pattern": t.pattern, "cluster_id": t.cluster_id} for t in pool))


def load_pool(path: str) -> list[Template]:
    out = []
    for lineno, obj in read_jsonl(path):
        pattern = str_field(obj, "pattern", path, lineno, "pool")
        try:
            out.append(Template(pattern, cluster_id=obj["cluster_id"]))
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: pool record lacks {exc}") from None
    return out
