"""Score fusion, document aggregation, and MAP/recall evaluation.

Fusion min-max normalizes each method's scores to [0, 1] per query and adds
them; a candidate one method missed contributes 0 from that method, so hybrid
scores live in [0, 2]. Segment-level runs roll up to documents by taking each
document's best segment score. Evaluation is MAP and recall at a cutoff over
a qrels mapping, with empty-gold queries excluded from the means but reported.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import ConfigError, DataError

DEFAULT_CUTOFF = 10
DEFAULT_TOP_N_DOCS = 10


@dataclass
class RunList:
    """A ranked result list for one query: (ref, score) sorted desc, ref-asc ties."""

    query_id: str
    hits: list[tuple[str, float]]
    method: str = ""

    def __post_init__(self):
        refs = [ref for ref, _ in self.hits]
        if len(refs) != len(set(refs)):
            raise DataError(f"run for query '{self.query_id}' repeats a candidate")
        self.hits = sorted(self.hits, key=lambda h: (-h[1], h[0]))

    @property
    def refs(self) -> list[str]:
        return [ref for ref, _ in self.hits]


def normalize_scores(hits: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Min-max to [0, 1]; a constant list maps to all ones; empty stays empty."""
    if not hits:
        return []
    scores = [s for _, s in hits]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return [(ref, 1.0) for ref, _ in hits]
    span = hi - lo
    return [(ref, (s - lo) / span) for ref, s in hits]


def hybrid_fuse(bm25_run: RunList, neural_run: RunList) -> RunList:
    """Sum of per-method normalized scores over the union of candidates."""
    if bm25_run.query_id != neural_run.query_id:
        raise DataError(
            f"cannot fuse runs for different queries "
            f"('{bm25_run.query_id}' vs '{neural_run.query_id}')"
        )
    fused: dict[str, float] = {}
    for ref, s in normalize_scores(bm25_run.hits):
        fused[ref] = fused.get(ref, 0.0) + s
    for ref, s in normalize_scores(neural_run.hits):
        fused[ref] = fused.get(ref, 0.0) + s
    return RunList(bm25_run.query_id, list(fused.items()), method="hybrid")


def aggregate_documents(
    run: RunList,
    segment_to_doc: Mapping[str, str],
    top_n: int = DEFAULT_TOP_N_DOCS,
) -> RunList:
    """Document score = best score of any of its segments; keep the top n."""
    if top_n <= 0:
        raise ConfigError(f"top_n must be positive, got {top_n}")
    best: dict[str, float] = {}
    for ref, score in run.hits:
        doc = segment_to_doc.get(ref)
        if doc is None:
            raise DataError(f"segment '{ref}' has no document mapping")
        if doc not in best or score > best[doc]:
            best[doc] = score
    ranked = sorted(best.items(), key=lambda h: (-h[1], h[0]))[:top_n]
    return RunList(run.query_id, ranked, method=run.method or "aggregated")


def average_precision(ranked: list[str], relevant: set[str], cutoff: int = DEFAULT_CUTOFF) -> float:
    """Sum of precision at each relevant rank within the cutoff, over
    min(|relevant|, cutoff)."""
    if cutoff <= 0:
        raise ConfigError(f"cutoff must be positive, got {cutoff}")
    if not relevant:
        raise DataError("average precision is undefined for an empty relevant set")
    hits = 0
    precision_sum = 0.0
    for rank, ref in enumerate(ranked[:cutoff], start=1):
        if ref in relevant:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / min(len(relevant), cutoff)


def recall_at(ranked: list[str], relevant: set[str], cutoff: int = DEFAULT_CUTOFF) -> float:
    if not relevant:
        raise DataError("recall is undefined for an empty relevant set")
    retrieved = set(ranked[:cutoff])
    return len(retrieved & relevant) / len(relevant)


@dataclass
class EvalReport:
    map: float
    recall: float
    cutoff: int
    num_queries: int
    per_query: list[dict] = field(default_factory=list)
    skipped_queries: list[str] = field(default_factory=list)
    manifests: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "map": self.map,
            "recall": self.recall,
            "cutoff": self.cutoff,
            "num_queries": self.num_queries,
            "per_query": self.per_query,
            "skipped_queries": self.skipped_queries,
        }
        if self.manifests:
            payload["manifests"] = self.manifests
        return json.dumps(payload, sort_keys=True, indent=2)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def from_json(cls, blob: str) -> "EvalReport":
        return cls(**json.loads(blob))


def evaluate_run(
    runs: Mapping[str, RunList],
    qrels: Mapping[str, set[str]],
    cutoff: int = DEFAULT_CUTOFF,
) -> EvalReport:
    """MAP and mean recall at the cutoff over the qrels queries.

    Queries with empty gold sets are skipped and listed; queries the run does
    not cover score 0 on both metrics. Queries in the run but not in qrels are
    ignored (nothing to judge them against).
    """
    per_query = []
    skipped = []
    ap_values = []
    recall_values = []
    for query_id in sorted(qrels):
        relevant = qrels[query_id]
        if not relevant:
            skipped.append(query_id)
            continue
        run = runs.get(query_id)
        if run is None:
            ap, rec = 0.0, 0.0
        else:
            ap = average_precision(run.refs, relevant, cutoff)
            rec = recall_at(run.refs, relevant, cutoff)
        ap_values.append(ap)
        recall_values.append(rec)
        per_query.append(
            {"query_id": query_id, "ap": ap, "recall": rec, "num_relevant": len(relevant)}
        )
    if not ap_values:
        raise DataError("no scorable queries: every qrels entry has an empty gold set")
    return EvalReport(
        map=sum(ap_values) / len(ap_values),
        recall=sum(recall_values) / len(recall_values),
        cutoff=cutoff,
        num_queries=len(ap_values),
        per_query=per_query,
        skipped_queries=skipped,
    )


# ---------------------------------------------------------------------------
# Run and qrels files. Runs use the six-column TREC format
# "qid Q0 ref rank score tag"; qrels are "query_id<TAB>doc_id" lines.

def write_trec_run(path: str, runs: Iterable[RunList], tag: str = "bioir") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for run in runs:
            for rank, (ref, score) in enumerate(run.hits, start=1):
                fh.write(f"{run.query_id} Q0 {ref} {rank} {score!r} {run.method or tag}\n")


def read_trec_run(path: str) -> dict[str, RunList]:
    by_query: dict[str, list[tuple[str, float]]] = {}
    methods: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 6 or parts[1] != "Q0":
                raise DataError(f"{path}:{lineno}: expected 'qid Q0 ref rank score tag'")
            qid, _, ref, _, score, tag = parts
            try:
                value = float(score)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad score '{score}'") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite score '{score}'")
            by_query.setdefault(qid, []).append((ref, value))
            methods[qid] = tag
    return {
        qid: RunList(qid, hits, method=methods[qid]) for qid, hits in by_query.items()
    }


def write_qrels(path: str, qrels: Mapping[str, set[str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(qrels):
            for doc in sorted(qrels[qid]):
                fh.write(f"{qid}\t{doc}\n")


def read_qrels(path: str) -> dict[str, set[str]]:
    qrels: dict[str, set[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DataError(f"{path}:{lineno}: expected 'query_id<TAB>doc_id'")
            qrels.setdefault(parts[0], set()).add(parts[1])
    return qrels
