"""Staged end-to-end pipeline with content-checksum caching.

A flat key=value config drives the run: segment, compute stats, build the
lexical and dense branches (generating pre-training and template-question
pairs, training the dense model), search, aggregate segments to documents,
fuse, and evaluate. Every stage writes a manifest of its parameters and the
checksums of its inputs and outputs; a stage whose manifest still matches is
skipped. Nothing in a manifest depends on the wall clock, so two identical
runs produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, fields
from typing import Callable

from . import ConfigError, DataError, StageError, __version__
from .corpus import (
    UnitKind,
    compute_stats,
    CorpusStats,
    load_corpus,
    load_segments,
    read_jsonl,
    save_segments,
    segment_corpus,
)
from .embedding import HashingEmbedder
from .fusion_eval import (
    EvalReport,
    RunList,
    aggregate_documents,
    evaluate_run,
    hybrid_fuse,
    read_qrels,
    read_trec_run,
    write_trec_run,
)
from .lexical import build_index, InvertedIndex, search_bm25
from .polydpr import (
    DenseIndex,
    RetrieverModel,
    TrainConfig,
    build_dense_index,
    search_dense,
    train,
)
from .pretrain import (
    build_etm_pairs,
    build_ict_pairs,
    build_rsm_pairs,
    load_pairs,
    save_pairs,
)
from .templates import (
    EntityLexicon,
    LexicalTemplateScorer,
    Template,
    build_tempqg_pairs,
    cluster_templates,
    extract_template,
    load_pool,
    load_templates,
    pick_representative,
    save_pool,
    save_templates,
    tag_entities,
)

log = logging.getLogger(__name__)

MODES = ("bm25", "dense", "hybrid")
PRETRAIN_TASKS = ("rsm", "etm", "ict", "none")
FINETUNE_TASKS = ("tempqg", "none")


@dataclass
class PipelineConfig:
    corpus: str = ""
    queries: str = ""
    qrels: str = ""
    train_questions: str = ""
    lexicon: str = ""
    workdir: str = ""
    mode: str = "hybrid"
    unit: str = "two_sent"
    token_budget: int = 0
    include_title: bool = False
    k1: float = 0.9
    b: float = 0.4
    top_k: int = 100
    top_docs: int = 100
    cutoff: int = 10
    poly_k: int = 6
    dim: int = 64
    embed_seed: int = 13
    n_hash: int = 8
    seed: int = 1
    train_seed: int = 0
    pretrain_task: str = "rsm"
    finetune_task: str = "tempqg"
    etm_m: int = 10
    rsm_m: int = 8
    df_threshold: int = 5
    cluster_threshold: float = 0.75
    representative: str = "smallest"
    n_templates: int = 10
    tempqg_unit: str = "two_sent"
    epochs: int = 120
    batch_size: int = 64
    learning_rate: float = 2.0
    schedule: str = "sequential"

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got '{self.mode}'")
        if self.pretrain_task not in PRETRAIN_TASKS:
            raise ConfigError(f"pretrain_task must be one of {PRETRAIN_TASKS}")
        if self.finetune_task not in FINETUNE_TASKS:
            raise ConfigError(f"finetune_task must be one of {FINETUNE_TASKS}")
        if self.representative not in ("smallest", "second"):
            raise ConfigError("representative must be 'smallest' or 'second'")
        UnitKind.parse(self.unit)
        UnitKind.parse(self.tempqg_unit)
        for name in ("corpus", "queries", "qrels", "workdir"):
            if not getattr(self, name):
                raise ConfigError(f"config key '{name}' is required")
        for name in ("corpus", "queries", "qrels"):
            if not os.path.exists(getattr(self, name)):
                raise ConfigError(f"{name} file not found: {getattr(self, name)}")
        needs_templates = self.mode != "bm25" and self.finetune_task == "tempqg"
        if needs_templates:
            for name in ("train_questions", "lexicon"):
                if not getattr(self, name):
                    raise ConfigError(
                        f"config key '{name}' is required for template question generation"
                    )
                if not os.path.exists(getattr(self, name)):
                    raise ConfigError(f"{name} file not found: {getattr(self, name)}")

    @classmethod
    def from_file(cls, path: str, overrides: list[str] | None = None) -> "PipelineConfig":
        items = _parse_kv_file(path)
        for ov in overrides or []:
            if "=" not in ov:
                raise ConfigError(f"override '{ov}' is not key=value")
            key, value = ov.split("=", 1)
            items[key.strip()] = value.strip()
        return cls.from_items(items)

    @classmethod
    def from_items(cls, items: dict[str, str]) -> "PipelineConfig":
        typed = {}
        by_name = {f.name: f for f in fields(cls)}
        for key, raw in items.items():
            f = by_name.get(key)
            if f is None:
                raise ConfigError(f"unknown config key '{key}'")
            try:
                if f.type == "bool" or isinstance(f.default, bool):
                    if raw.lower() not in ("true", "false", "1", "0", "yes", "no"):
                        raise ValueError("expected a boolean")
                    typed[key] = raw.lower() in ("true", "1", "yes")
                elif isinstance(f.default, int):
                    typed[key] = int(raw)
                elif isinstance(f.default, float):
                    typed[key] = float(raw)
                else:
                    typed[key] = raw
            except ValueError as exc:
                raise ConfigError(f"config key '{key}': bad value '{raw}' ({exc})") from None
        return cls(**typed)


def _parse_kv_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    items: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            items[key.strip()] = value.strip()
    return items


def load_queries(path: str) -> list[tuple[str, str]]:
    """Retrieval queries: {"query_id", "text"} JSONL."""
    queries = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path):
        try:
            qid, text = obj["query_id"], obj["text"]
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: query record lacks {exc}") from None
        if qid in seen:
            raise DataError(f"{path}:{lineno}: duplicate query id '{qid}'")
        seen.add(qid)
        queries.append((qid, text))
    return queries


def load_questions(path: str) -> list[tuple[str, str]]:
    """Template-extraction questions: {"question_id", "text"} JSONL."""
    questions = []
    for lineno, obj in read_jsonl(path):
        try:
            questions.append((obj["question_id"], obj["text"]))
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: question record lacks {exc}") from None
    return questions


def file_checksum(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class StageOutcome:
    name: str
    cached: bool
    outputs: list[str]


class PipelineRunner:
    """Runs named stages, skipping any whose manifest still matches."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.manifest_dir = os.path.join(workdir, "manifests")
        os.makedirs(self.manifest_dir, exist_ok=True)
        self.outcomes: list[StageOutcome] = []
        self.manifests: list[dict] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def stage(
        self,
        name: str,
        inputs: list[str],
        params: dict,
        outputs: list[str],
        fn: Callable[[], None],
    ) -> None:
        manifest_path = os.path.join(self.manifest_dir, f"{name}.json")
        for p in inputs:
            if not os.path.exists(p):
                raise StageError(name, f"missing input file: {p}")
        want = {
            "stage": name,
            "version": __version__,
            "params": params,
            "inputs": {p: file_checksum(p) for p in inputs},
        }
        if self._matches(manifest_path, want, outputs):
            log.info("stage %s: cached", name)
            with open(manifest_path, "r", encoding="utf-8") as fh:
                self.manifests.append(json.load(fh))
            self.outcomes.append(StageOutcome(name, True, outputs))
            return
        log.info("stage %s: running", name)
        try:
            fn()
        except (ConfigError, DataError, StageError, OSError) as exc:
            raise StageError(name, str(exc)) from exc
        for p in outputs:
            if not os.path.exists(p):
                raise StageError(name, f"stage did not produce expected output: {p}")
        manifest = dict(want)
        manifest["outputs"] = {p: file_checksum(p) for p in outputs}
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
        self.manifests.append(manifest)
        self.outcomes.append(StageOutcome(name, False, outputs))

    def _matches(self, manifest_path: str, want: dict, outputs: list[str]) -> bool:
        if not os.path.exists(manifest_path):
            return False
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                have = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return False
        for key in ("stage", "version", "params", "inputs"):
            if have.get(key) != want[key]:
                return False
        recorded = have.get("outputs", {})
        if set(recorded) != set(outputs):
            return False
        for p, checksum in recorded.items():
            if not os.path.exists(p) or file_checksum(p) != checksum:
                return False
        return True


def _question_stats(questions: list[tuple[str, str]]) -> CorpusStats:
    from .corpus import Document

    return compute_stats([Document(qid, "", text) for qid, text in questions])


def extract_templates_from_questions(
    questions: list[tuple[str, str]],
    lexicon: EntityLexicon,
    df_threshold: int,
):
    """Tag and blank every question; stats come from the question corpus itself."""
    stats = _question_stats(questions)
    templates = []
    for qid, text in questions:
        spans = tag_entities(text, lexicon)
        templates.append(extract_template(text, spans, stats, df_threshold, question_id=qid))
    return templates


def build_pool(templates, threshold: float, second_smallest: bool):
    clusters = cluster_templates(templates, threshold)
    pool = []
    for cid, cluster in enumerate(clusters):
        rep = pick_representative(cluster, second_smallest=second_smallest)
        pool.append(Template(pattern=rep.pattern, cluster_id=cid))
    return pool


def run_pipeline(config: PipelineConfig) -> tuple[EvalReport, list[StageOutcome]]:
    """Execute the configured stage graph; returns the report and stage outcomes."""
    config.validate()
    os.makedirs(config.workdir, exist_ok=True)
    runner = PipelineRunner(config.workdir)
    want_bm25 = config.mode in ("bm25", "hybrid")
    want_dense = config.mode in ("dense", "hybrid")
    want_tempqg = want_dense and config.finetune_task == "tempqg"
    want_pretrain = want_dense and config.pretrain_task != "none"

    segments_path = runner.path("segments.jsonl")
    runner.stage(
        "segment_index",
        inputs=[config.corpus],
        params={
            "unit": config.unit,
            "token_budget": config.token_budget,
            "include_title": config.include_title,
        },
        outputs=[segments_path],
        fn=lambda: save_segments(
            segments_path,
            segment_corpus(
                load_corpus(config.corpus),
                UnitKind.parse(config.unit),
                token_budget=config.token_budget or None,
                include_title=config.include_title,
            ),
        ),
    )

    if want_bm25:
        bm25_path = runner.path("bm25_index.json")
        runner.stage(
            "bm25_index",
            inputs=[segments_path],
            params={"k1": config.k1, "b": config.b},
            outputs=[bm25_path],
            fn=lambda: build_index(
                load_segments(segments_path), k1=config.k1, b=config.b
            ).save(bm25_path),
        )

        bm25_run_seg = runner.path("run_bm25_segments.trec")

        def _bm25_search():
            index = InvertedIndex.load(bm25_path)
            runs = []
            for qid, text in load_queries(config.queries):
                hits = search_bm25(index, text, config.top_k)
                runs.append(RunList(qid, hits, method="bm25"))
            write_trec_run(bm25_run_seg, runs)

        runner.stage(
            "bm25_search",
            inputs=[bm25_path, config.queries],
            params={"top_k": config.top_k},
            outputs=[bm25_run_seg],
            fn=_bm25_search,
        )

        bm25_run_docs = runner.path("run_bm25_docs.trec")
        runner.stage(
            "bm25_aggregate",
            inputs=[bm25_run_seg, segments_path],
            params={"top_docs": config.top_docs},
            outputs=[bm25_run_docs],
            fn=lambda: _aggregate_file(bm25_run_seg, segments_path, bm25_run_docs, config),
        )

    model_path = runner.path("model.pdmo")
    if want_dense:
        pretrain_path = runner.path("pairs_pretrain.jsonl")
        if want_pretrain:
            stats_path = runner.path("doc_stats.json")
            if config.pretrain_task in ("rsm", "etm"):
                runner.stage(
                    "doc_stats",
                    inputs=[config.corpus],
                    params={},
                    outputs=[stats_path],
                    fn=lambda: _write_stats(config.corpus, stats_path),
                )

            def _pretrain():
                docs = load_corpus(config.corpus)
                if config.pretrain_task == "ict":
                    pairs, _ = build_ict_pairs(docs, seed=config.seed)
                else:
                    with open(stats_path, "r", encoding="utf-8") as fh:
                        stats = CorpusStats.from_json(fh.read())
                    if config.pretrain_task == "etm":
                        pairs, _ = build_etm_pairs(docs, stats, m=config.etm_m)
                    else:
                        pairs, _ = build_rsm_pairs(
                            docs, stats, m=config.rsm_m, etm_m=config.etm_m
                        )
                save_pairs(pretrain_path, pairs)

            pretrain_inputs = [config.corpus]
            pretrain_params = {
                "task": config.pretrain_task,
                "etm_m": config.etm_m,
                "rsm_m": config.rsm_m,
                "seed": config.seed,
            }
            if config.pretrain_task in ("rsm", "etm"):
                pretrain_inputs.append(stats_path)
            runner.stage(
                "pretrain_pairs",
                inputs=pretrain_inputs,
                params=pretrain_params,
                outputs=[pretrain_path],
                fn=_pretrain,
            )

        tempqg_path = runner.path("pairs_tempqg.jsonl")
        if want_tempqg:
            context_segments_path = runner.path("segments_context.jsonl")
            runner.stage(
                "segment_context",
                inputs=[config.corpus],
                params={"unit": config.tempqg_unit},
                outputs=[context_segments_path],
                fn=lambda: save_segments(
                    context_segments_path,
                    segment_corpus(load_corpus(config.corpus), UnitKind.parse(config.tempqg_unit)),
                ),
            )

            templates_path = runner.path("templates_raw.jsonl")
            runner.stage(
                "template_extract",
                inputs=[config.train_questions, config.lexicon],
                params={"df_threshold": config.df_threshold},
                outputs=[templates_path],
                fn=lambda: save_templates(
                    templates_path,
                    extract_templates_from_questions(
                        load_questions(config.train_questions),
                        EntityLexicon.load(config.lexicon),
                        config.df_threshold,
                    ),
                ),
            )

            pool_path = runner.path("template_pool.jsonl")
            runner.stage(
                "template_pool",
                inputs=[templates_path],
                params={
                    "threshold": config.cluster_threshold,
                    "representative": config.representative,
                },
                outputs=[pool_path],
                fn=lambda: save_pool(
                    pool_path,
                    build_pool(
                        load_templates(templates_path),
                        config.cluster_threshold,
                        config.representative == "second",
                    ),
                ),
            )

            runner.stage(
                "tempqg_pairs",
                inputs=[context_segments_path, pool_path, config.lexicon],
                params={"n_templates": config.n_templates},
                outputs=[tempqg_path],
                fn=lambda: save_pairs(
                    tempqg_path,
                    build_tempqg_pairs(
                        load_segments(context_segments_path),
                        load_pool(pool_path),
                        LexicalTemplateScorer(),
                        EntityLexicon.load(config.lexicon),
                        n_templates=config.n_templates,
                    ),
                ),
            )

        train_inputs = []
        if want_tempqg:
            train_inputs.append(tempqg_path)
        if want_pretrain:
            train_inputs.append(pretrain_path)

        def _train():
            provider = HashingEmbedder(
                dim=config.dim, seed=config.embed_seed, n_hash=config.n_hash
            )
            model = RetrieverModel.initialize(
                config.poly_k, config.dim, config.seed,
                provenance={"embedder": provider.spec()},
            )
            if not train_inputs:
                model.save(model_path)
                return
            if want_tempqg:
                main_pairs = load_pairs(tempqg_path)
                pre_pairs = load_pairs(pretrain_path) if want_pretrain else None
            else:
                main_pairs = load_pairs(pretrain_path)
                pre_pairs = None
            trained = train(
                main_pairs,
                provider,
                model,
                TrainConfig(
                    epochs=config.epochs,
                    batch_size=config.batch_size,
                    learning_rate=config.learning_rate,
                    seed=config.train_seed,
                    schedule=config.schedule,
                ),
                pretrain_pairs=pre_pairs,
            )
            trained.save(model_path)

        runner.stage(
            "train",
            inputs=train_inputs,
            params={
                "poly_k": config.poly_k,
                "dim": config.dim,
                "embed_seed": config.embed_seed,
                "n_hash": config.n_hash,
                "seed": config.seed,
                "train_seed": config.train_seed,
                "epochs": config.epochs,
                "batch_size": config.batch_size,
                "learning_rate": config.learning_rate,
                "schedule": config.schedule,
            },
            outputs=[model_path],
            fn=_train,
        )

        dense_path = runner.path("dense_index.pdix")

        def _dense_index():
            model = RetrieverModel.load(model_path)
            provider = HashingEmbedder(
                dim=config.dim, seed=config.embed_seed, n_hash=config.n_hash
            )
            build_dense_index(load_segments(segments_path), provider, model.codes).save(dense_path)

        runner.stage(
            "dense_index",
            inputs=[segments_path, model_path],
            params={},
            outputs=[dense_path],
            fn=_dense_index,
        )

        dense_run_seg = runner.path("run_dense_segments.trec")

        def _dense_search():
            model = RetrieverModel.load(model_path)
            provider = HashingEmbedder(
                dim=config.dim, seed=config.embed_seed, n_hash=config.n_hash
            )
            wrapped = model.query_provider(provider)
            index = DenseIndex.load(dense_path)
            runs = []
            for qid, text in load_queries(config.queries):
                hits = search_dense(index, text, wrapped, config.top_k)
                runs.append(RunList(qid, hits, method="dense"))
            write_trec_run(dense_run_seg, runs)

        runner.stage(
            "dense_search",
            inputs=[dense_path, model_path, config.queries],
            params={"top_k": config.top_k},
            outputs=[dense_run_seg],
            fn=_dense_search,
        )

        dense_run_docs = runner.path("run_dense_docs.trec")
        runner.stage(
            "dense_aggregate",
            inputs=[dense_run_seg, segments_path],
            params={"top_docs": config.top_docs},
            outputs=[dense_run_docs],
            fn=lambda: _aggregate_file(dense_run_seg, segments_path, dense_run_docs, config),
        )

    if config.mode == "hybrid":
        hybrid_docs = runner.path("run_hybrid_docs.trec")

        def _fuse():
            bm25_runs = read_trec_run(bm25_run_docs)
            dense_runs = read_trec_run(dense_run_docs)
            fused = []
            for qid in sorted(set(bm25_runs) | set(dense_runs)):
                left = bm25_runs.get(qid, RunList(qid, [], method="bm25"))
                right = dense_runs.get(qid, RunList(qid, [], method="dense"))
                fused.append(hybrid_fuse(left, right))
            write_trec_run(hybrid_docs, fused)

        runner.stage(
            "fuse",
            inputs=[bm25_run_docs, dense_run_docs],
            params={},
            outputs=[hybrid_docs],
            fn=_fuse,
        )
        final_run = hybrid_docs
    elif config.mode == "bm25":
        final_run = bm25_run_docs
    else:
        final_run = dense_run_docs

    report_path = runner.path("report.json")
    chain = hashlib.sha256(
        json.dumps(runner.manifests, sort_keys=True).encode("utf-8")
    ).hexdigest()

    def _evaluate():
        runs = read_trec_run(final_run)
        report = evaluate_run(runs, read_qrels(config.qrels), cutoff=config.cutoff)
        report.manifests = runner.manifests
        report.save(report_path)

    runner.stage(
        "evaluate",
        inputs=[final_run, config.qrels],
        params={"cutoff": config.cutoff, "chain": chain},
        outputs=[report_path],
        fn=_evaluate,
    )

    with open(report_path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    report = EvalReport(
        map=raw["map"],
        recall=raw["recall"],
        cutoff=raw["cutoff"],
        num_queries=raw["num_queries"],
        per_query=raw["per_query"],
        skipped_queries=raw["skipped_queries"],
        manifests=raw.get("manifests", []),
    )
    return report, runner.outcomes


def _write_stats(corpus_path: str, out_path: str) -> None:
    stats = compute_stats(load_corpus(corpus_path))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(stats.to_json())
        fh.write("\n")


def _aggregate_file(run_path: str, segments_path: str, out_path: str,
                    config: PipelineConfig) -> None:
    seg_to_doc = {s.segment_id: s.doc_id for s in load_segments(segments_path)}
    runs = read_trec_run(run_path)
    aggregated = [
        aggregate_documents(runs[qid], seg_to_doc, top_n=config.top_docs)
        for qid in sorted(runs)
    ]
    write_trec_run(out_path, aggregated)
