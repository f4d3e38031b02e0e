"""Pseudo query/context pair generators for retriever pre-training.

Three tasks, all self-supervised from the corpus:

  ETM  expand a title with the abstract's top TF-IDF keywords; the expanded
       title queries the abstract.
  RSM  reduce each abstract sentence to its top TF-IDF words in sentence
       order; the reduced sentence queries the expanded title.
  ICT  a seeded random sentence queries the rest of its abstract.

Pairs serialize to JSONL as {"query", "positive", "task", "source_doc_id"}.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from . import ConfigError, DataError
from .corpus import (
    CorpusStats,
    Document,
    read_jsonl,
    split_sentences,
    str_field,
    tfidf_weights,
    tokenize,
    top_keywords,
    write_jsonl,
)

TASK_ETM = "ETM"
TASK_RSM = "RSM"
TASK_ICT = "ICT"
TASK_TEMPQG = "TempQG"
TASK_SUPERVISED = "Supervised"

KNOWN_TASKS = frozenset({TASK_ETM, TASK_RSM, TASK_ICT, TASK_TEMPQG, TASK_SUPERVISED})

DEFAULT_ETM_KEYWORDS = 10
DEFAULT_RSM_WORDS = 8


@dataclass
class TrainingPair:
    query_text: str
    positive_text: str
    task: str
    source_doc_id: str

    def __post_init__(self):
        if self.task not in KNOWN_TASKS:
            raise DataError(f"unknown task tag '{self.task}'")
        if not self.query_text.strip() or not self.positive_text.strip():
            raise DataError(f"empty pair text for doc '{self.source_doc_id}'")


@dataclass
class ExpandedTitle:
    title: str
    keywords: list[str]

    @property
    def rendered(self) -> str:
        if not self.keywords:
            return self.title
        return f"{self.title} {' '.join(self.keywords)}"


def expand_title(doc: Document, stats: CorpusStats, m: int = DEFAULT_ETM_KEYWORDS) -> ExpandedTitle:
    """Title plus the abstract's top-m keywords. Keywords are distinct terms."""
    keywords = top_keywords(doc.abstract, stats, m)
    return ExpandedTitle(title=doc.title, keywords=keywords)


def reduce_sentence(sentence: str, stats: CorpusStats, m: int = DEFAULT_RSM_WORDS) -> list[str]:
    """Top-m TF-IDF terms of a sentence, kept in original sentence order.

    Selection runs over distinct terms (a repeated token counts once, at its
    earliest position), so the result is a subsequence of the token stream.
    """
    tokens = tokenize(sentence)
    if not tokens:
        return []
    weights = tfidf_weights(sentence, stats)
    first_occ: dict[str, int] = {}
    for i, t in enumerate(tokens):
        first_occ.setdefault(t, i)
    chosen = sorted(weights, key=lambda t: (-weights[t], first_occ[t]))[:m]
    return sorted(chosen, key=lambda t: first_occ[t])


def build_etm_pairs(
    docs: Iterable[Document],
    stats: CorpusStats,
    m: int = DEFAULT_ETM_KEYWORDS,
) -> tuple[list[TrainingPair], int]:
    """One pair per document: expanded title -> abstract. Returns (pairs, skipped)."""
    if m <= 0:
        raise ConfigError(f"keyword count must be positive, got {m}")
    pairs = []
    skipped = 0
    for doc in docs:
        if not doc.abstract.strip():
            skipped += 1
            continue
        expanded = expand_title(doc, stats, m)
        pairs.append(TrainingPair(expanded.rendered, doc.abstract, TASK_ETM, doc.doc_id))
    return pairs, skipped


def build_rsm_pairs(
    docs: Iterable[Document],
    stats: CorpusStats,
    m: int = DEFAULT_RSM_WORDS,
    etm_m: int = DEFAULT_ETM_KEYWORDS,
) -> tuple[list[TrainingPair], int]:
    """One pair per abstract sentence: reduced sentence -> expanded title."""
    if m <= 0:
        raise ConfigError(f"word count must be positive, got {m}")
    pairs = []
    skipped = 0
    for doc in docs:
        if not doc.abstract.strip():
            skipped += 1
            continue
        positive = expand_title(doc, stats, etm_m).rendered
        for sent in split_sentences(doc.abstract):
            reduced = reduce_sentence(sent, stats, m)
            if not reduced:
                skipped += 1
                continue
            pairs.append(TrainingPair(" ".join(reduced), positive, TASK_RSM, doc.doc_id))
    return pairs, skipped


def ict_sentence_index(seed: int, doc_id: str, n_sentences: int) -> int:
    """Deterministic uniform draw keyed by (seed, doc_id).

    The draw is the first 8 bytes of sha256("{seed}:{doc_id}") read as a
    big-endian integer, reduced mod the sentence count. Keying each document
    independently makes the choice stable under corpus reordering.
    """
    if n_sentences <= 0:
        raise DataError("cannot draw a sentence from an empty abstract")
    digest = hashlib.sha256(f"{seed}:{doc_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_sentences


def build_ict_pairs(
    docs: Iterable[Document],
    seed: int,
) -> tuple[list[TrainingPair], int]:
    """One pair per document with at least two sentences: sentence -> rest."""
    pairs = []
    skipped = 0
    for doc in docs:
        sents = split_sentences(doc.abstract)
        if len(sents) < 2:
            skipped += 1
            continue
        idx = ict_sentence_index(seed, doc.doc_id, len(sents))
        query = sents[idx]
        rest = [s for i, s in enumerate(sents) if i != idx]
        pairs.append(TrainingPair(query, " ".join(rest), TASK_ICT, doc.doc_id))
    return pairs, skipped


def save_pairs(path: str, pairs: Iterable[TrainingPair]) -> None:
    write_jsonl(
        path,
        (
            {
                "query": p.query_text,
                "positive": p.positive_text,
                "task": p.task,
                "source_doc_id": p.source_doc_id,
            }
            for p in pairs
        ),
    )


def load_pairs(path: str) -> list[TrainingPair]:
    pairs = []
    for lineno, obj in read_jsonl(path):
        fields = [str_field(obj, key, path, lineno, "pair")
                  for key in ("query", "positive", "task", "source_doc_id")]
        try:
            pairs.append(TrainingPair(*fields))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return pairs
