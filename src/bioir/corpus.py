"""Corpus model: documents, tokenization, sentence splitting, segmentation, stats.

A document is a title plus an abstract. Retrieval never runs over raw
documents; it runs over index units (segments) cut from them: sliding
two-sentence windows, token-budgeted chunks, single sentences, or the full
document. All downstream modules consume the segment stream produced here.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from . import ConfigError, DataError

_PUNCT = string.punctuation

# Trailing-period tokens that do not end a sentence. "e." covers species
# abbreviations (E. coli); the rest are the usual citation/figure suspects.
DEFAULT_ABBREVIATIONS = frozenset(
    {
        "al.", "approx.", "cf.", "co.", "dept.", "dr.", "e.", "e.g.", "eq.",
        "eqs.", "etc.", "fig.", "figs.", "i.e.", "inc.", "ltd.", "mr.",
        "mrs.", "ms.", "no.", "pp.", "prof.", "ref.", "refs.", "spp.",
        "st.", "univ.", "vol.", "vs.",
    }
)


class UnitKind(str, Enum):
    """Index-unit granularities."""

    TWO_SENT = "two_sent"
    CHUNK128 = "chunk128"
    CHUNK256 = "chunk256"
    FULL_DOC = "full_doc"
    SINGLE_SENT = "single_sent"

    @classmethod
    def parse(cls, value: str) -> "UnitKind":
        try:
            return cls(value)
        except ValueError:
            known = ", ".join(k.value for k in cls)
            raise ConfigError(f"unknown unit kind '{value}' (known: {known})") from None


# Default token budgets for the chunk kinds; segment_corpus accepts an override.
CHUNK_BUDGETS = {UnitKind.CHUNK128: 128, UnitKind.CHUNK256: 256}


@dataclass
class Document:
    doc_id: str
    title: str
    abstract: str

    def __post_init__(self):
        if not self.doc_id:
            raise DataError("document id must be non-empty")
        if not self.abstract.strip() and not self.title.strip():
            raise DataError(f"document '{self.doc_id}' has neither title nor abstract")

    @property
    def text(self) -> str:
        """Title and abstract joined, the full-document view."""
        return f"{self.title} {self.abstract}".strip()


@dataclass
class Segment:
    segment_id: str
    doc_id: str
    ordinal: int
    unit_kind: UnitKind
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise DataError(f"segment '{self.segment_id}' has empty text")


def tokenize(text: str) -> list[str]:
    """Lowercase, strip leading/trailing punctuation per token, split on whitespace.

    Interior punctuation survives, so "LAMP-2A" and "e.g" stay single tokens.
    Tokens that are all punctuation vanish.
    """
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_PUNCT)
        if tok:
            out.append(tok)
    return out


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> list[str]:
    """Rule-based sentence split.

    A '.', '?' or '!' ends a sentence when followed by whitespace and an
    uppercase letter, or by the end of the text. A period whose preceding
    token (lowercased) is on the abbreviation guard list never splits.
    """
    if abbreviations is None:
        abbreviations = DEFAULT_ABBREVIATIONS
    sentences = []
    start = 0
    n = len(text)
    i = 0
    while i < n:
        ch = text[i]
        if ch in ".?!":
            j = i + 1
            while j < n and text[j].isspace():
                j += 1
            at_end = j >= n
            opens_upper = j < n and j > i + 1 and text[j].isupper()
            if at_end or opens_upper:
                guarded = False
                if ch == ".":
                    k = i
                    while k > start and not text[k - 1].isspace():
                        k -= 1
                    guarded = text[k : i + 1].lower() in abbreviations
                if not guarded:
                    piece = text[start : i + 1].strip()
                    if piece:
                        sentences.append(piece)
                    start = j
                    i = j
                    continue
        i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def segment_corpus(
    docs: Iterable[Document],
    unit_kind: UnitKind,
    token_budget: int | None = None,
    include_title: bool = False,
    abbreviations: frozenset[str] | None = None,
) -> list[Segment]:
    """Cut documents into index units of the requested granularity.

    TWO_SENT slides a two-sentence window with stride one over the abstract
    (a one-sentence abstract yields that sentence alone). The chunk kinds pack
    consecutive whole sentences greedily up to the token budget; a single
    sentence over budget is kept whole. FULL_DOC is title plus abstract.
    Non-FULL_DOC units exclude the title unless include_title is set.
    """
    if not isinstance(unit_kind, UnitKind):
        unit_kind = UnitKind.parse(unit_kind)
    if unit_kind in CHUNK_BUDGETS:
        budget = CHUNK_BUDGETS[unit_kind] if token_budget is None else token_budget
        if budget <= 0:
            raise ConfigError(f"token budget must be positive, got {budget}")
    else:
        budget = None

    segments = []

    def emit(doc: Document, ordinal: int, text: str) -> int:
        if include_title and unit_kind is not UnitKind.FULL_DOC:
            text = f"{doc.title} {text}".strip()
        seg_id = f"{doc.doc_id}#{unit_kind.value}#{ordinal}"
        segments.append(Segment(seg_id, doc.doc_id, ordinal, unit_kind, text))
        return ordinal + 1

    for doc in docs:
        if unit_kind is UnitKind.FULL_DOC:
            emit(doc, 0, doc.text)
            continue
        sents = split_sentences(doc.abstract, abbreviations)
        ordinal = 0
        if unit_kind is UnitKind.SINGLE_SENT:
            for s in sents:
                ordinal = emit(doc, ordinal, s)
        elif unit_kind is UnitKind.TWO_SENT:
            if len(sents) == 1:
                emit(doc, 0, sents[0])
            else:
                for a, b in zip(sents, sents[1:]):
                    ordinal = emit(doc, ordinal, f"{a} {b}")
        else:
            cur: list[str] = []
            cur_tokens = 0
            for s in sents:
                n_tok = len(tokenize(s))
                if cur and cur_tokens + n_tok > budget:
                    ordinal = emit(doc, ordinal, " ".join(cur))
                    cur, cur_tokens = [], 0
                cur.append(s)
                cur_tokens += n_tok
            if cur:
                emit(doc, ordinal, " ".join(cur))
    return segments


@dataclass
class CorpusStats:
    """Term statistics over a collection of units (documents or segments).

    doc_freq counts distinct units containing each term; term_freqs keeps the
    per-unit term counts (desk scale keeps this affordable and it is what
    phrase document-frequency lookups need).
    """

    num_docs: int
    avg_doc_len: float
    doc_freq: dict[str, int]
    term_freqs: dict[str, Counter] = field(repr=False)

    def df(self, term: str) -> int:
        return self.doc_freq.get(term, 0)

    def phrase_df(self, tokens: list[str]) -> int:
        """Units containing every token of the phrase. Equals df for one token."""
        if not tokens:
            return 0
        if len(tokens) == 1:
            return self.df(tokens[0])
        return sum(1 for tf in self.term_freqs.values() if all(t in tf for t in tokens))

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "num_docs": self.num_docs,
            "avg_doc_len": self.avg_doc_len,
            "doc_freq": dict(sorted(self.doc_freq.items())),
            "term_freqs": {
                uid: dict(sorted(tf.items())) for uid, tf in sorted(self.term_freqs.items())
            },
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "CorpusStats":
        raw = json.loads(blob)
        return cls(
            num_docs=raw["num_docs"],
            avg_doc_len=raw["avg_doc_len"],
            doc_freq=dict(raw["doc_freq"]),
            term_freqs={uid: Counter(tf) for uid, tf in raw["term_freqs"].items()},
        )


def compute_stats(units: Iterable[Document] | Iterable[Segment]) -> CorpusStats:
    """Build CorpusStats over documents (title plus abstract) or segments."""
    units = list(units)
    if not units:
        raise DataError("cannot compute statistics over an empty collection")
    doc_freq: Counter = Counter()
    term_freqs: dict[str, Counter] = {}
    total_len = 0
    # One string object per distinct term, shared by every unit's counts.
    canonical: dict[str, str] = {}
    for u in units:
        if isinstance(u, Document):
            uid, text = u.doc_id, u.text
        else:
            uid, text = u.segment_id, u.text
        if uid in term_freqs:
            raise DataError(f"duplicate unit id '{uid}' in statistics input")
        tf = Counter(canonical.setdefault(t, t) for t in tokenize(text))
        term_freqs[uid] = tf
        total_len += sum(tf.values())
        doc_freq.update(tf.keys())
    return CorpusStats(
        num_docs=len(units),
        avg_doc_len=total_len / len(units),
        doc_freq=dict(doc_freq),
        term_freqs=term_freqs,
    )


def tfidf_weights(text: str, stats: CorpusStats) -> dict[str, float]:
    """Normalized TF-IDF weights over the distinct terms of a text.

    raw(t) = tf(t) * ln(N / (1 + df(t))), floored at zero; the floored values
    are scaled to sum to one whenever any term has positive raw weight.
    """
    tokens = tokenize(text)
    if not tokens:
        raise DataError("cannot weight a text with no tokens")
    tf = Counter(tokens)
    n = stats.num_docs
    raw = {}
    for t, count in tf.items():
        idf = math.log(n / (1 + stats.df(t)))
        raw[t] = max(0.0, count * idf)
    total = sum(raw.values())
    if total <= 0.0:
        return {t: 0.0 for t in raw}
    return {t: v / total for t, v in raw.items()}


def top_keywords(text: str, stats: CorpusStats, m: int) -> list[str]:
    """The m highest-weighted distinct terms of a text, ties by first occurrence."""
    if m <= 0:
        raise ConfigError(f"keyword count must be positive, got {m}")
    weights = tfidf_weights(text, stats)
    first_occ: dict[str, int] = {}
    for i, t in enumerate(tokenize(text)):
        first_occ.setdefault(t, i)
    ranked = sorted(weights, key=lambda t: (-weights[t], first_occ[t]))
    return ranked[:m]


# ---------------------------------------------------------------------------
# File formats. The corpus is JSON Lines, one {"id", "title", "abstract"}
# object per line; segments dump to {"segment_id", "doc_id", "ordinal",
# "unit_kind", "text"} lines.

def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) pairs; malformed lines raise DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed JSON line ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, obj


def str_field(obj: dict, key: str, path: str, lineno: int, record: str) -> str:
    """obj[key] from a `record` line of a JSONL file; a missing key or a value
    that is not a JSON string raises DataError naming path:line."""
    try:
        value = obj[key]
    except KeyError:
        raise DataError(f"{path}:{lineno}: {record} record lacks '{key}'") from None
    if not isinstance(value, str):
        raise DataError(f"{path}:{lineno}: {record} field '{key}' must be a string, "
                        f"got {type(value).__name__}")
    return value


def write_jsonl(path: str, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


def load_corpus(path: str) -> list[Document]:
    """Load a JSONL corpus; duplicate or missing ids fail with the line number."""
    docs = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path):
        doc_id = str_field(obj, "id", path, lineno, "document")
        if doc_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate document id '{doc_id}'")
        seen.add(doc_id)
        title, abstract = (str_field(obj, key, path, lineno, "document") if key in obj else ""
                           for key in ("title", "abstract"))  # both optional
        try:
            docs.append(Document(doc_id, title, abstract))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return docs


def save_corpus(path: str, docs: Iterable[Document]) -> None:
    write_jsonl(
        path,
        ({"id": d.doc_id, "title": d.title, "abstract": d.abstract} for d in docs),
    )


def save_segments(path: str, segments: Iterable[Segment]) -> None:
    write_jsonl(
        path,
        (
            {
                "segment_id": s.segment_id,
                "doc_id": s.doc_id,
                "ordinal": s.ordinal,
                "unit_kind": s.unit_kind.value,
                "text": s.text,
            }
            for s in segments
        ),
    )


def load_segments(path: str) -> list[Segment]:
    segments = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path):
        segment_id, doc_id, kind, text = (str_field(obj, key, path, lineno, "segment")
                                          for key in ("segment_id", "doc_id", "unit_kind", "text"))
        ordinal = obj.get("ordinal")
        if type(ordinal) is not int:  # excludes bool, which subclasses int
            raise DataError(f"{path}:{lineno}: segment record needs an integer 'ordinal', "
                            f"got {ordinal!r}")
        if segment_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate segment id '{segment_id}'")
        seen.add(segment_id)
        try:
            segments.append(Segment(segment_id, doc_id, ordinal, UnitKind(kind), text))
        except (DataError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: bad segment record ({exc})") from None
    return segments
