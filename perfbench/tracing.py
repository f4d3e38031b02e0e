"""Spans and counts recorded from outside the bioir package.

A traced name is replaced, for the length of a ``with recorder.installed(...)``
block, by a wrapper that records a span (name, start, end, parent) and, for
some names, a count computed from the call's arguments or result. Module
functions are replaced in every loaded bioir module that holds them, which is
where their callers look them up (``bioir.pipeline.train`` as well as
``bioir.polydpr.train``); methods are replaced on their class. Wrappers never
touch arguments or results, so a traced run writes the same bytes as an
untraced one. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PIPELINE_STAGES = (
    "segment_index", "bm25_index", "bm25_search", "bm25_aggregate", "doc_stats",
    "pretrain_pairs", "segment_context", "template_extract", "template_pool",
    "tempqg_pairs", "train", "dense_index", "dense_search", "dense_aggregate",
    "fuse", "evaluate",
)


@dataclass(frozen=True)
class Target:
    owner: str  # dotted module path, or module path plus class name
    attr: str
    name: str | Callable[[tuple], str]
    hook: Callable | None = None  # hook(counts, args, kwargs, result) after the span closes
    span: bool = True  # False: count calls only, for names called too often to span


class Recorder:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, fn, target: Target):
        name, hook, counts = target.name, target.hook, self.counts
        if not target.span:
            def count_only(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return count_only

        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(spans)
            spans.append((label, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, spans[idx][3])
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        undo = []
        try:
            for target in targets:
                undo.extend(self._install(target))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, target: Target):
        try:
            owner = importlib.import_module(target.owner)
        except ModuleNotFoundError:
            module_name, _, class_name = target.owner.rpartition(".")
            owner = getattr(importlib.import_module(module_name), class_name)
        if isinstance(owner, type):
            raw = owner.__dict__[target.attr]
            if isinstance(raw, classmethod):
                setattr(owner, target.attr, classmethod(self._wrap(raw.__func__, target)))
            else:
                setattr(owner, target.attr, self._wrap(raw, target))
            return [(owner, target.attr, raw)]
        original = getattr(owner, target.attr)
        wrapper = self._wrap(original, target)
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "bioir" and not mod_name.startswith("bioir."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
        return undo

    def durations(self, name: str) -> list[float]:
        return [end - start for label, start, end, _ in self.spans if label == name]

    def split_by_parent(self, name: str, parent_name: str) -> tuple[list[float], list[float]]:
        """Durations of `name` spans called from a `parent_name` span, and of the rest."""
        parents = {i for i, span in enumerate(self.spans) if span[0] == parent_name}
        inside, outside = [], []
        for label, start, end, parent in self.spans:
            if label == name:
                (inside if parent in parents else outside).append(end - start)
        return inside, outside

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str, minus: tuple[str, ...]) -> float:
        """Time in `name` spans minus the time of their direct children named in `minus`."""
        ids = {i for i, span in enumerate(self.spans) if span[0] == name}
        children = sum(
            end - start
            for label, start, end, parent in self.spans
            if parent in ids and label in minus
        )
        return self.total(name) - children


# ---------------------------------------------------------------------------
# Count hooks: each adds what a call did, computed from its arguments/result.

def _train_steps(counts, args, kwargs, result):
    pairs, config = args[0], args[3]
    pretrain = kwargs.get("pretrain_pairs", args[4] if len(args) > 4 else None)

    def per_epoch(n):  # _epoch_batches keeps batches of at least two pairs
        full, rest = divmod(n, config.batch_size)
        return full + (1 if rest >= 2 else 0)

    sets = [len(pairs)] + ([len(pretrain)] if pretrain else [])
    counts["polydpr.train_steps"] += config.epochs * sum(per_epoch(n) for n in sets)


def _dense_scan(counts, args, kwargs, result):
    index = args[0]
    n = len(index.entries)
    work = n * index.k * index.d
    counts["polydpr.entries_scored"] += n
    counts["polydpr.score_flops"] += 2 * work
    counts["polydpr.score_bytes"] += 8 * work


def _postings(counts, args, kwargs, result):
    from bioir.corpus import tokenize

    index, query = args[0], args[1]
    counts["lexical.postings_scanned"] += sum(
        len(index.postings.get(t, ())) for t in set(tokenize(query))
    )


def _add_len(key, pick=lambda r: r):
    def hook(counts, args, kwargs, result):
        counts[key] += len(pick(result))
    return hook


def _checksum_bytes(counts, args, kwargs, result):
    counts["pipeline.file_checksum_bytes"] += os.path.getsize(args[0])


def _stage_outcomes(counts, args, kwargs, result):
    outcomes = result[1]
    counts["pipeline.stages_cached"] += sum(1 for o in outcomes if o.cached)
    counts["pipeline.stages_ran"] += sum(1 for o in outcomes if not o.cached)


# The per-query latency probe: always on, no hooks, so untraced runs time
# each query without paying for counts. The scorer span tells the template
# scorer's BM25 searches apart from retrieval queries.
QUERY_TARGETS = (
    Target("bioir.lexical", "search_bm25", "lexical.search_bm25"),
    Target("bioir.polydpr", "search_dense", "polydpr.search_dense"),
    Target("bioir.templates.LexicalTemplateScorer", "__call__", "templates.scorer"),
)

LAYER_TARGETS = (
    Target("bioir.pipeline", "run_pipeline", "pipeline.run_pipeline", _stage_outcomes),
    Target("bioir.pipeline.PipelineRunner", "stage", lambda a: f"pipeline.stage.{a[1]}"),
    Target("bioir.pipeline", "file_checksum", "pipeline.file_checksum", _checksum_bytes),
    Target("bioir.pipeline", "extract_templates_from_questions", "templates.extract"),
    Target("bioir.polydpr", "train", "polydpr.train", _train_steps),
    Target("bioir.polydpr", "search_dense", "polydpr.search_dense", _dense_scan),
    Target("bioir.polydpr", "build_dense_index", "polydpr.build_dense_index"),
    Target("bioir.polydpr.DenseIndex", "load", "polydpr.dense_index_load"),
    Target("bioir.embedding.HashingEmbedder", "token_vectors", "embedding.token_vectors"),
    Target("bioir.embedding.HashingEmbedder", "query_vector", "embedding.query_vector"),
    Target("bioir.lexical", "search_bm25", "lexical.search_bm25", _postings),
    Target("bioir.lexical", "build_index", "lexical.build_index"),
    Target("bioir.lexical.InvertedIndex", "load", "lexical.index_load"),
    Target("bioir.templates", "cluster_templates", "templates.cluster_templates"),
    Target("bioir.templates", "template_similarity", "templates.template_similarity_calls",
           span=False),
    Target("bioir.templates", "build_tempqg_pairs", "templates.build_tempqg_pairs",
           _add_len("templates.pairs_out")),
    Target("bioir.templates.LexicalTemplateScorer", "__call__", "templates.scorer"),
    Target("bioir.templates", "fill_template", "templates.fill_attempts", span=False),
    Target("bioir.pretrain", "build_rsm_pairs", "pretrain.build_rsm_pairs",
           _add_len("pretrain.pairs_out", lambda r: r[0])),
    Target("bioir.corpus", "segment_corpus", "corpus.segment_corpus",
           _add_len("corpus.segments_out")),
    Target("bioir.corpus", "compute_stats", "corpus.compute_stats"),
    Target("bioir.corpus", "load_corpus", "corpus.load"),
    Target("bioir.corpus", "load_segments", "corpus.load"),
    Target("bioir.fusion_eval", "aggregate_documents", "fusion_eval.aggregate"),
    Target("bioir.fusion_eval", "hybrid_fuse", "fusion_eval.fuse"),
    Target("bioir.fusion_eval", "evaluate_run", "fusion_eval.evaluate"),
    Target("bioir.fusion_eval", "write_trec_run", "fusion_eval.trec_io"),
    Target("bioir.fusion_eval", "read_trec_run", "fusion_eval.trec_io"),
    Target("bioir.fusion_eval", "read_qrels", "fusion_eval.trec_io"),
    Target("bioir.fixture", "make_synthetic_fixture", "fixture.make"),
)

_EMBED = ("embedding.token_vectors", "embedding.query_vector")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); unused layers read 0."""
    c = rec.counts
    out: dict[str, tuple[float, str]] = {}

    def seconds(metric, span_name=None):
        out[metric] = (rec.total(span_name or metric[:-2]), "s")

    def count(metric, value=None):
        out[metric] = (float(c[metric] if value is None else value), "count")

    for stage in PIPELINE_STAGES:
        seconds(f"pipeline.stage.{stage}_s")
    count("pipeline.stages_ran")
    count("pipeline.stages_cached")
    seconds("pipeline.file_checksum_s")
    count("pipeline.file_checksum_calls", len(rec.durations("pipeline.file_checksum")))
    out["pipeline.file_checksum_bytes"] = (float(c["pipeline.file_checksum_bytes"]), "bytes")

    seconds("polydpr.train_s")
    train_self = rec.self_time("polydpr.train", _EMBED)
    out["polydpr.train_self_s"] = (train_self, "s")
    count("polydpr.train_steps")
    out["polydpr.train_step_ms"] = (1e3 * _ratio(train_self, c["polydpr.train_steps"]), "ms")

    seconds("polydpr.search_dense_s")
    scan_self = rec.self_time("polydpr.search_dense", _EMBED)
    out["polydpr.search_dense_self_s"] = (scan_self, "s")
    count("polydpr.entries_scored")
    out["polydpr.score_flops"] = (float(c["polydpr.score_flops"]), "flop")
    out["polydpr.score_bytes"] = (float(c["polydpr.score_bytes"]), "bytes")
    out["polydpr.score_gflops"] = (1e-9 * _ratio(c["polydpr.score_flops"], scan_self), "GFLOP/s")
    seconds("polydpr.build_dense_index_s")
    seconds("polydpr.dense_index_load_s")

    # Context-side token matrices only: calls made inside query_vector are
    # query encoding and belong to query_vector's time.
    query_ids = {i for i, s in enumerate(rec.spans) if s[0] == "embedding.query_vector"}
    context = [
        end - start
        for label, start, end, parent in rec.spans
        if label == "embedding.token_vectors" and parent not in query_ids
    ]
    count("embedding.token_vectors_calls", len(context))
    out["embedding.token_vectors_s"] = (sum(context), "s")
    count("embedding.query_vector_calls", len(query_ids))
    seconds("embedding.query_vector_s")

    count("lexical.search_bm25_calls", len(rec.durations("lexical.search_bm25")))
    seconds("lexical.search_bm25_s")
    count("lexical.postings_scanned")
    count("lexical.build_index_calls", len(rec.durations("lexical.build_index")))
    seconds("lexical.build_index_s")
    seconds("lexical.index_load_s")

    seconds("templates.extract_s")
    seconds("templates.cluster_templates_s")
    count("templates.template_similarity_calls")
    seconds("templates.build_tempqg_pairs_s")
    seconds("templates.scorer_s")
    count("templates.fill_attempts")
    count("templates.pairs_out")
    out["templates.fill_yield"] = (
        _ratio(c["templates.pairs_out"], c["templates.fill_attempts"]), "ratio")

    seconds("pretrain.build_rsm_pairs_s")
    count("pretrain.pairs_out")
    seconds("corpus.segment_corpus_s")
    count("corpus.segments_out")
    seconds("corpus.compute_stats_s")
    seconds("corpus.load_s")

    for name in ("aggregate", "fuse", "evaluate", "trec_io"):
        seconds(f"fusion_eval.{name}_s")
    seconds("fixture.make_s")
    return out
