"""Inverted index and BM25 scoring over segments.

The scoring function is the Lucene-style variant: idf uses the
ln(1 + (N - df + 0.5)/(df + 0.5)) form, which stays positive even for terms
present in every segment, and query terms are deduplicated before scoring.
Defaults k1=0.9, b=0.4 are tuned for short biomedical queries.

Both bm25_score and bm25_scores (which search_bm25 ranks) iterate query terms
in sorted order so the posting-list accumulation and the per-segment loop add
the same floats in the same order and agree bitwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

from . import ConfigError, DataError
from .corpus import Segment, tokenize

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4

INDEX_VERSION = 1


@dataclass
class InvertedIndex:
    postings: dict[str, list[tuple[str, int]]]
    segment_lengths: dict[str, int]
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    avg_len: float = field(init=False)

    def __post_init__(self):
        if self.k1 < 0:
            raise ConfigError(f"k1 must be non-negative, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ConfigError(f"b must lie in [0, 1], got {self.b}")
        if not self.segment_lengths:
            raise DataError("refusing to build an index over zero segments")
        self.avg_len = sum(self.segment_lengths.values()) / len(self.segment_lengths)

    @property
    def num_segments(self) -> int:
        return len(self.segment_lengths)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        n = self.num_segments
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    def to_json(self) -> str:
        payload = {
            "version": INDEX_VERSION,
            "k1": self.k1,
            "b": self.b,
            "segment_lengths": dict(sorted(self.segment_lengths.items())),
            "postings": {t: self.postings[t] for t in sorted(self.postings)},
        }
        return json.dumps(payload, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "InvertedIndex":
        """Read a saved index; a malformed file raises DataError naming it."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise DataError(f"{path}: not a JSON index ({exc})") from None
        if not isinstance(raw, dict):
            raise DataError(f"{path}: index must be a JSON object")
        if raw.get("version") != INDEX_VERSION:
            raise DataError(f"{path}: unsupported index version {raw.get('version')!r}")
        for key, kind in (("k1", (int, float)), ("b", (int, float)),
                          ("segment_lengths", dict), ("postings", dict)):
            if not isinstance(raw.get(key), kind) or isinstance(raw[key], bool):
                raise DataError(f"{path}: '{key}' is missing or mistyped")
        lengths = raw["segment_lengths"]
        if not all(type(n) is int for n in lengths.values()):
            raise DataError(f"{path}: segment lengths must be integers")
        try:
            postings = {t: [(ref, tf) for ref, tf in lst] for t, lst in raw["postings"].items()}
            valid = all(
                type(tf) is int and ref in lengths for lst in postings.values() for ref, tf in lst
            )
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise DataError(f"{path}: a posting is not a [segment, count] pair of the index")
        try:
            return cls(postings=postings, segment_lengths=lengths, k1=raw["k1"], b=raw["b"])
        except (ConfigError, DataError) as exc:
            raise DataError(f"{path}: {exc}") from None


def build_index(
    segments: Iterable[Segment],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> InvertedIndex:
    """Index segments; posting lists are sorted by segment id for determinism."""
    lengths: dict[str, int] = {}
    postings: dict[str, dict[str, int]] = {}
    for seg in segments:
        if seg.segment_id in lengths:
            raise DataError(f"duplicate segment id '{seg.segment_id}'")
        tokens = tokenize(seg.text)
        lengths[seg.segment_id] = len(tokens)
        for t in tokens:
            postings.setdefault(t, {})
            postings[t][seg.segment_id] = postings[t].get(seg.segment_id, 0) + 1
    sorted_postings = {
        t: sorted(by_seg.items()) for t, by_seg in postings.items()
    }
    return InvertedIndex(postings=sorted_postings, segment_lengths=lengths, k1=k1, b=b)


def _norm_denominator(index: InvertedIndex, tf: int, length: int) -> float:
    return tf + index.k1 * (1.0 - index.b + index.b * length / index.avg_len)


def bm25_score(index: InvertedIndex, query_terms: list[str], segment_ref: str) -> float:
    """Score one segment against the deduplicated query terms."""
    if segment_ref not in index.segment_lengths:
        raise DataError(f"unknown segment '{segment_ref}'")
    length = index.segment_lengths[segment_ref]
    score = 0.0
    for t in sorted(set(query_terms)):
        posting = index.postings.get(t)
        if not posting:
            continue
        tf = dict(posting).get(segment_ref)
        if tf is None:
            continue
        score += index.idf(t) * tf * (index.k1 + 1.0) / _norm_denominator(index, tf, length)
    return score


def search_bm25(index: InvertedIndex, query: str, top_k: int) -> list[tuple[str, float]]:
    """Top-k segments by BM25, ties broken by segment id. Zero scores are dropped."""
    if top_k <= 0:
        raise ConfigError(f"top_k must be positive, got {top_k}")
    hits = [(ref, s) for ref, s in bm25_scores(index, query).items() if s > 0.0]
    hits.sort(key=lambda h: (-h[1], h[0]))
    return hits[:top_k]


def bm25_scores(index: InvertedIndex, query: str) -> dict[str, float]:
    """BM25 score of every segment that shares a term with the query, unranked."""
    acc: dict[str, float] = {}
    for t in sorted(set(tokenize(query))):
        posting = index.postings.get(t)
        if not posting:
            continue
        idf = index.idf(t)
        for ref, tf in posting:
            length = index.segment_lengths[ref]
            contrib = idf * tf * (index.k1 + 1.0) / _norm_denominator(index, tf, length)
            acc[ref] = acc.get(ref, 0.0) + contrib
    return acc
