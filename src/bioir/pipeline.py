"""File-to-file operations and the staged pipeline that chains them.

Each operation reads its input files, writes its output file and returns what
it built; the CLI subcommands and the pipeline stages call the same
operations. A flat key=value config drives the staged run: segment, build the
lexical and dense branches (generating pre-training and template-question
pairs, training the dense model), search, aggregate segments to documents,
fuse, and evaluate. Every stage writes a manifest of its parameters and the
checksums of its inputs and outputs; a stage whose manifest still matches is
skipped. Nothing in a manifest depends on the wall clock, so two identical runs
produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass, fields
from typing import Callable

from . import ConfigError, DataError, StageError, __version__
from .corpus import (
    CorpusStats,
    Document,
    Segment,
    UnitKind,
    compute_stats,
    load_corpus,
    load_segments,
    read_jsonl,
    save_segments,
    segment_corpus,
    str_field,
    write_jsonl,
)
from .embedding import EmbeddingProvider, HashingEmbedder, provider_from_spec
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
from .lexical import InvertedIndex, build_index, search_bm25
from .polydpr import (
    DenseIndex,
    RetrieverModel,
    TrainConfig,
    build_dense_index,
    search_dense,
    train,
)
from .pretrain import (
    TrainingPair,
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
    TemplateScorer,
    build_tempqg_pairs,
    cluster_templates,
    extract_template,
    generate_questions,
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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"config key '{f.name}' must be finite, got {value}")
            if f.name in ("top_k", "top_docs", "cutoff") and value < 1:
                raise ConfigError(f"config key '{f.name}' must be at least 1, got {value}")
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
        qid = str_field(obj, "query_id", path, lineno, "query")
        text = str_field(obj, "text", path, lineno, "query")
        if qid in seen:
            raise DataError(f"{path}:{lineno}: duplicate query id '{qid}'")
        seen.add(qid)
        queries.append((qid, text))
    return queries


def load_questions(path: str) -> list[tuple[str, str]]:
    """Template-extraction questions: {"question_id", "text"} JSONL."""
    questions = []
    for lineno, obj in read_jsonl(path):
        questions.append((str_field(obj, "question_id", path, lineno, "question"),
                          str_field(obj, "text", path, lineno, "question")))
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
            if isinstance(exc, StageError) and exc.stage == name:
                raise
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


def extract_templates_from_questions(
    questions: list[tuple[str, str]],
    lexicon: EntityLexicon,
    df_threshold: int,
):
    """Tag and blank every question; stats come from the question corpus itself."""
    stats = compute_stats([Document(qid, "", text) for qid, text in questions])
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


# ---------------------------------------------------------------------------
# Operations. Each reads its input files, writes its output file `out` and
# returns what it built: CLI subcommands print from the result, pipeline
# stages ignore it. Every str argument other than `out` names an input file.

def segment_file(corpus: str, out: str, unit: str, token_budget: int | None = None,
                 include_title: bool = False, abbreviations: str | None = None) -> list[Segment]:
    """`abbreviations` holds sentence-split guard tokens, one per line."""
    docs = load_corpus(corpus)
    guards = None
    if abbreviations is not None:
        with open(abbreviations, "r", encoding="utf-8") as fh:
            guards = frozenset(line.strip().lower() for line in fh if line.strip())
    segments = segment_corpus(docs, UnitKind.parse(unit), token_budget=token_budget,
                              include_title=include_title, abbreviations=guards)
    save_segments(out, segments)
    return segments


def stats_file(units: str, out: str, from_segments: bool = False) -> CorpusStats:
    """Term statistics over a corpus file, or over a segments file."""
    stats = compute_stats(load_segments(units) if from_segments else load_corpus(units))
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(stats.to_json())
        fh.write("\n")
    return stats


def bm25_index_file(segments: str, out: str, k1: float, b: float) -> InvertedIndex:
    index = build_index(load_segments(segments), k1=k1, b=b)
    index.save(out)
    return index


def _search_file(queries: str, out: str, tag: str, search: Callable) -> list[RunList]:
    runs = []
    for qid, text in load_queries(queries):
        try:
            runs.append(RunList(qid, search(text), method=tag))
        except DataError as exc:
            raise DataError(f"{queries}: query '{qid}': {exc}") from None
    write_trec_run(out, runs)
    return runs


def bm25_search_file(index: str, queries: str, out: str, top_k: int,
                     tag: str = "bm25") -> list[RunList]:
    loaded = InvertedIndex.load(index)
    return _search_file(queries, out, tag, lambda text: search_bm25(loaded, text, top_k))


def model_provider(model: RetrieverModel, vectors: str | None = None) -> EmbeddingProvider:
    """The embedding provider recorded in the model's provenance."""
    return provider_from_spec(model.provenance.get("embedder", {}), vectors)


def dense_index_file(segments: str, model: str, out: str,
                     vectors: str | None = None) -> DenseIndex:
    loaded = RetrieverModel.load(model)
    index = build_dense_index(load_segments(segments), model_provider(loaded, vectors),
                              loaded.codes)
    index.save(out)
    return index


def dense_search_file(index: str, model: str, queries: str, out: str, top_k: int,
                      tag: str = "dense", vectors: str | None = None) -> list[RunList]:
    loaded = RetrieverModel.load(model)
    provider = loaded.query_provider(model_provider(loaded, vectors))
    dense = DenseIndex.load(index)
    return _search_file(queries, out, tag, lambda text: search_dense(dense, text, provider, top_k))


def pretrain_pairs_file(task: str, corpus: str, out: str, etm_m: int, rsm_m: int,
                        seed: int) -> tuple[list[TrainingPair], int]:
    """ETM, RSM or ICT pairs and the skipped count. ETM and RSM compute term
    statistics from the corpus."""
    docs = load_corpus(corpus)
    if task == "ict":
        pairs, skipped = build_ict_pairs(docs, seed=seed)
    elif task == "etm":
        pairs, skipped = build_etm_pairs(docs, compute_stats(docs), m=etm_m)
    else:
        pairs, skipped = build_rsm_pairs(docs, compute_stats(docs), m=rsm_m, etm_m=etm_m)
    save_pairs(out, pairs)
    return pairs, skipped


def template_extract_file(questions: str, lexicon: str, out: str,
                          df_threshold: int) -> list[Template]:
    templates = extract_templates_from_questions(
        load_questions(questions), EntityLexicon.load(lexicon), df_threshold
    )
    save_templates(out, templates)
    return templates


def template_pool_file(templates: str, out: str, threshold: float,
                       representative: str) -> tuple[list[Template], list[Template]]:
    """Returns the loaded templates and the pool of cluster representatives."""
    loaded = load_templates(templates)
    pool = build_pool(loaded, threshold, representative == "second")
    save_pool(out, pool)
    return loaded, pool


def tempqg_pairs_file(segments: str, pool: str, lexicon: str, out: str, n_templates: int,
                      scorer: TemplateScorer) -> list[TrainingPair]:
    pairs = build_tempqg_pairs(load_segments(segments), load_pool(pool), scorer,
                               EntityLexicon.load(lexicon), n_templates=n_templates)
    save_pairs(out, pairs)
    return pairs


def questions_file(segments: str, pool: str, lexicon: str, out: str, n_templates: int,
                   scorer: TemplateScorer) -> tuple[list[dict], int]:
    """Every filled question per segment, duplicates kept; returns rows and segment count."""
    units, templates = load_segments(segments), load_pool(pool)
    entities = EntityLexicon.load(lexicon)
    rows = [
        {"question": question, "segment_id": seg.segment_id, "doc_id": seg.doc_id}
        for seg in units
        for question in generate_questions(seg.text, templates, scorer, entities, n_templates)
    ]
    write_jsonl(out, rows)
    return rows, len(units)


def train_file(out: str, provider: EmbeddingProvider, k: int, seed: int, config: TrainConfig,
               pairs: str | None = None, pretrain: str | None = None) -> RetrieverModel:
    """Train on `pairs` (after or beside `pretrain`'s); without pairs the seeded
    untrained model is saved."""
    model = RetrieverModel.initialize(
        k, provider.dimension, seed, provenance={"embedder": provider.spec()}
    )
    if pairs is not None:
        pre = load_pairs(pretrain) if pretrain else None
        model = train(load_pairs(pairs), provider, model, config, pretrain_pairs=pre)
    model.save(out)
    return model


def aggregate_file(run: str, segments: str, out: str, top_n: int) -> list[RunList]:
    seg_to_doc = {s.segment_id: s.doc_id for s in load_segments(segments)}
    runs = read_trec_run(run)
    aggregated = [aggregate_documents(runs[qid], seg_to_doc, top_n=top_n) for qid in sorted(runs)]
    write_trec_run(out, aggregated)
    return aggregated


def fuse_file(bm25_run: str, dense_run: str, out: str) -> list[RunList]:
    bm25_runs, dense_runs = read_trec_run(bm25_run), read_trec_run(dense_run)
    fused = [
        hybrid_fuse(bm25_runs.get(qid, RunList(qid, [], method="bm25")),
                    dense_runs.get(qid, RunList(qid, [], method="dense")))
        for qid in sorted(set(bm25_runs) | set(dense_runs))
    ]
    write_trec_run(out, fused)
    return fused


def evaluate_file(run: str, qrels: str, cutoff: int, out: str | None = None,
                  manifests: list[dict] | None = None) -> EvalReport:
    """MAP and recall; the report, with any manifests, is written when `out` is given."""
    report = evaluate_run(read_trec_run(run), read_qrels(qrels), cutoff=cutoff)
    report.manifests = manifests or []
    if out:
        report.save(out)
    return report


def run_pipeline(config: PipelineConfig) -> tuple[EvalReport, list[StageOutcome]]:
    """Execute the configured stage graph; returns the report and stage outcomes."""
    config.validate()
    os.makedirs(config.workdir, exist_ok=True)
    runner = PipelineRunner(config.workdir)
    path, stage = runner.path, runner.stage

    def keys(*names: str) -> dict:
        return {name: getattr(config, name) for name in names}

    want_bm25 = config.mode in ("bm25", "hybrid")
    want_dense = config.mode in ("dense", "hybrid")
    want_tempqg = want_dense and config.finetune_task == "tempqg"
    want_pretrain = want_dense and config.pretrain_task != "none"
    corpus, queries = config.corpus, config.queries

    segments = path("segments.jsonl")
    stage("segment_index", [corpus], keys("unit", "token_budget", "include_title"), [segments],
          lambda: segment_file(corpus, segments, config.unit, config.token_budget or None,
                               config.include_title))

    if want_bm25:
        bm25 = path("bm25_index.json")
        bm25_seg, bm25_docs = path("run_bm25_segments.trec"), path("run_bm25_docs.trec")
        stage("bm25_index", [segments], keys("k1", "b"), [bm25],
              lambda: bm25_index_file(segments, bm25, config.k1, config.b))
        stage("bm25_search", [bm25, queries], keys("top_k"), [bm25_seg],
              lambda: bm25_search_file(bm25, queries, bm25_seg, config.top_k))
        stage("bm25_aggregate", [bm25_seg, segments], keys("top_docs"), [bm25_docs],
              lambda: aggregate_file(bm25_seg, segments, bm25_docs, config.top_docs))

    if want_dense:
        pretrain = path("pairs_pretrain.jsonl")
        if want_pretrain:
            stage("pretrain_pairs", [corpus],
                  {"task": config.pretrain_task, **keys("etm_m", "rsm_m", "seed")}, [pretrain],
                  lambda: pretrain_pairs_file(config.pretrain_task, corpus, pretrain,
                                              config.etm_m, config.rsm_m, config.seed))

        tempqg = path("pairs_tempqg.jsonl")
        if want_tempqg:
            templates, pool = path("templates_raw.jsonl"), path("template_pool.jsonl")
            # TempQG contexts are segments.jsonl unless segment_file would be
            # called with other arguments.
            contexts, context_args = segments, (config.tempqg_unit, None, False)
            if context_args != (config.unit, config.token_budget or None, config.include_title):
                contexts = path("segments_context.jsonl")
                stage("segment_context", [corpus], {"unit": config.tempqg_unit}, [contexts],
                      lambda: segment_file(corpus, contexts, *context_args))
            stage("template_extract", [config.train_questions, config.lexicon],
                  keys("df_threshold"), [templates],
                  lambda: template_extract_file(config.train_questions, config.lexicon,
                                                templates, config.df_threshold))
            stage("template_pool", [templates],
                  {"threshold": config.cluster_threshold, "representative": config.representative},
                  [pool],
                  lambda: template_pool_file(templates, pool, config.cluster_threshold,
                                             config.representative))
            stage("tempqg_pairs", [contexts, pool, config.lexicon], keys("n_templates"),
                  [tempqg],
                  lambda: tempqg_pairs_file(contexts, pool, config.lexicon, tempqg,
                                            config.n_templates, LexicalTemplateScorer()))

        # Main pairs first, then pre-training pairs: train_file's argument order.
        train_inputs = [p for p, on in ((tempqg, want_tempqg), (pretrain, want_pretrain)) if on]
        model = path("model.pdmo")
        stage("train", train_inputs,
              keys("poly_k", "dim", "embed_seed", "n_hash", "seed", "train_seed", "epochs",
                   "batch_size", "learning_rate", "schedule"),
              [model],
              lambda: train_file(
                  model,
                  HashingEmbedder(dim=config.dim, seed=config.embed_seed, n_hash=config.n_hash),
                  config.poly_k,
                  config.seed,
                  TrainConfig(epochs=config.epochs, batch_size=config.batch_size,
                              learning_rate=config.learning_rate, seed=config.train_seed,
                              schedule=config.schedule),
                  *train_inputs,
              ))

        dense = path("dense_index.pdix")
        dense_seg, dense_docs = path("run_dense_segments.trec"), path("run_dense_docs.trec")
        stage("dense_index", [segments, model], {}, [dense],
              lambda: dense_index_file(segments, model, dense))
        stage("dense_search", [dense, model, queries], keys("top_k"), [dense_seg],
              lambda: dense_search_file(dense, model, queries, dense_seg, config.top_k))
        stage("dense_aggregate", [dense_seg, segments], keys("top_docs"), [dense_docs],
              lambda: aggregate_file(dense_seg, segments, dense_docs, config.top_docs))

    if config.mode == "hybrid":
        final_run = path("run_hybrid_docs.trec")
        stage("fuse", [bm25_docs, dense_docs], {}, [final_run],
              lambda: fuse_file(bm25_docs, dense_docs, final_run))
    else:
        final_run = bm25_docs if config.mode == "bm25" else dense_docs

    report = path("report.json")
    chain = hashlib.sha256(json.dumps(runner.manifests, sort_keys=True).encode("utf-8"))
    stage("evaluate", [final_run, config.qrels],
          {"cutoff": config.cutoff, "chain": chain.hexdigest()}, [report],
          lambda: evaluate_file(final_run, config.qrels, config.cutoff, report, runner.manifests))
    with open(report, "r", encoding="utf-8") as fh:
        return EvalReport.from_json(fh.read()), runner.outcomes
