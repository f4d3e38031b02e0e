"""Command-line entry point.

One subcommand per pipeline operation plus `pipeline` to run the whole staged
graph from a flat key=value config. Exit codes: 0 success, 2 configuration
error, 3 data error, 4 stage failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import ConfigError, DataError, StageError
from .corpus import UnitKind
from .embedding import HashingEmbedder, provider_from_spec
from .fixture import make_synthetic_fixture
from .lexical import DEFAULT_B, DEFAULT_K1
from .pipeline import (
    PipelineConfig,
    aggregate_file,
    bm25_index_file,
    bm25_search_file,
    dense_index_file,
    dense_search_file,
    evaluate_file,
    fuse_file,
    model_provider,
    pretrain_pairs_file,
    questions_file,
    run_pipeline,
    segment_file,
    stats_file,
    template_extract_file,
    template_pool_file,
    tempqg_pairs_file,
    train_file,
)
from .polydpr import DEFAULT_K, RetrieverModel, TrainConfig, grad_check
from .pretrain import DEFAULT_ETM_KEYWORDS, DEFAULT_RSM_WORDS, TrainingPair
from .templates import (
    DEFAULT_CLUSTER_THRESHOLD,
    DEFAULT_DF_THRESHOLD,
    DEFAULT_POOL_SIZE,
    DenseTemplateScorer,
    LexicalTemplateScorer,
)

log = logging.getLogger("bioir")


def cmd_segment(args) -> None:
    segments = segment_file(
        args.corpus, args.out, args.unit, args.token_budget, args.include_title,
        args.abbreviations,
    )
    print(f"wrote {len(segments)} segments to {args.out}")


def cmd_stats(args) -> None:
    if bool(args.corpus) == bool(args.segments):
        raise ConfigError("pass exactly one of --corpus or --segments")
    stats = stats_file(args.corpus or args.segments, args.out, from_segments=bool(args.segments))
    print(
        f"{stats.num_docs} units, {len(stats.doc_freq)} distinct terms, "
        f"mean length {stats.avg_doc_len:.2f} tokens"
    )


def cmd_build_bm25(args) -> None:
    index = bm25_index_file(args.segments, args.out, args.k1, args.b)
    print(f"indexed {index.num_segments} segments ({len(index.postings)} terms)")


def cmd_search_bm25(args) -> None:
    runs = bm25_search_file(args.index, args.queries, args.out, args.top_k, args.tag)
    print(f"wrote runs for {len(runs)} queries to {args.out}")


def cmd_gen_pretrain(args) -> None:
    m = args.m or (DEFAULT_ETM_KEYWORDS if args.task == "etm" else DEFAULT_RSM_WORDS)
    pairs, skipped = pretrain_pairs_file(
        args.task, args.corpus, args.out,
        etm_m=m if args.task == "etm" else args.etm_m, rsm_m=m, seed=args.seed,
    )
    print(f"{args.task}: {len(pairs)} pairs, {skipped} skipped")


def cmd_extract_templates(args) -> None:
    templates = template_extract_file(args.questions, args.lexicon, args.out, args.df_threshold)
    n_blanked = sum(1 for t in templates if t.blank_count)
    print(f"extracted {len(templates)} templates ({n_blanked} with blanks)")


def cmd_cluster_templates(args) -> None:
    templates, pool = template_pool_file(
        args.templates, args.out, args.threshold, args.representative
    )
    print(f"{len(templates)} templates -> {len(pool)} clusters")


def _make_engine(args):
    if args.engine == "lexical":
        return LexicalTemplateScorer()
    if not args.model:
        raise ConfigError("--engine dense requires --model")
    model = RetrieverModel.load(args.model)
    return DenseTemplateScorer(model_provider(model, args.vectors), model.codes, model.projection)


def cmd_gen_questions(args) -> None:
    rows, n_segments = questions_file(
        args.segments, args.pool, args.lexicon, args.out, args.n_templates, _make_engine(args)
    )
    print(f"generated {len(rows)} questions over {n_segments} segments")


def cmd_build_tempqg(args) -> None:
    pairs = tempqg_pairs_file(
        args.segments, args.pool, args.lexicon, args.out, args.n_templates, _make_engine(args)
    )
    print(f"wrote {len(pairs)} question/context pairs")


def _training_provider(args):
    if args.embedder == "hashing":
        return HashingEmbedder(dim=args.dim, seed=args.embed_seed, n_hash=args.n_hash)
    if not args.vectors:
        raise ConfigError("--embedder file requires --vectors")
    return provider_from_spec({"kind": "file", "path": args.vectors})


def cmd_train(args) -> None:
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
        schedule=args.schedule,
    )
    trained = train_file(
        args.out, _training_provider(args), args.k, args.seed, config,
        args.pairs, args.pretrain_pairs,
    )
    losses = trained.provenance.get("epoch_losses", [])
    tail = f", final loss {losses[-1]:.4f}" if losses else ""
    print(
        f"trained on {trained.provenance['n_pairs']} pairs ({args.epochs} epochs{tail}); "
        f"model -> {args.out}"
    )


def _random_pairs(rng: np.random.Generator, batch_size: int) -> list[TrainingPair]:
    def text(lo, hi):
        n = int(rng.integers(lo, hi + 1))
        return " ".join(f"tok{int(rng.integers(0, 50))}" for _ in range(n))

    return [
        TrainingPair(text(3, 6), text(5, 12), "Supervised", f"g{i}")
        for i in range(batch_size)
    ]


def cmd_grad_check(args) -> None:
    rng = np.random.default_rng(args.seed)
    provider = HashingEmbedder(dim=args.dim, seed=args.embed_seed, n_hash=args.n_hash)
    worst = 0.0
    for b in range(args.batches):
        model = RetrieverModel.initialize(args.k, args.dim, int(rng.integers(0, 2**31)))
        batch = _random_pairs(rng, args.batch_size)
        errors = grad_check(model, provider, batch, epsilon=args.epsilon)
        worst = max(worst, *errors.values())
        log.info(
            "batch %d: codes %.3e, projection %.3e", b, errors["codes"], errors["projection"]
        )
    verdict = "PASS" if worst < args.tolerance else "FAIL"
    print(
        f"max relative gradient error {worst:.3e} over {args.batches} batches "
        f"(tolerance {args.tolerance:g}): {verdict}"
    )
    if verdict == "FAIL":
        raise StageError("grad-check", f"gradient error {worst:.3e} >= {args.tolerance:g}")


def cmd_build_dense(args) -> None:
    index = dense_index_file(args.segments, args.model, args.out, args.vectors)
    print(f"indexed {len(index.entries)} segments (K={index.k}, d={index.d})")


def cmd_search_dense(args) -> None:
    runs = dense_search_file(
        args.index, args.model, args.queries, args.out, args.top_k, args.tag, args.vectors
    )
    print(f"wrote runs for {len(runs)} queries to {args.out}")


def cmd_hybrid(args) -> None:
    fused = fuse_file(args.bm25_run, args.dense_run, args.out)
    print(f"fused {len(fused)} queries to {args.out}")


def cmd_aggregate(args) -> None:
    aggregated = aggregate_file(args.run, args.segments, args.out, args.top_n)
    print(f"aggregated {len(aggregated)} queries to document level")


def cmd_eval(args) -> None:
    report = evaluate_file(args.run, args.qrels, args.cutoff, args.out)
    skipped = f" ({len(report.skipped_queries)} skipped)" if report.skipped_queries else ""
    print(
        f"MAP@{report.cutoff} {report.map:.4f}  recall@{report.cutoff} {report.recall:.4f}  "
        f"over {report.num_queries} queries{skipped}"
    )


def cmd_fixture(args) -> None:
    paths = make_synthetic_fixture(
        args.out_dir, seed=args.seed, n_docs=args.n_docs, vocab_size=args.vocab_size
    )
    print(f"fixture written under {args.out_dir}")
    for name in ("corpus", "queries", "qrels", "train_questions", "lexicon"):
        print(f"  {name}: {getattr(paths, name)}")


def cmd_pipeline(args) -> None:
    config = PipelineConfig.from_file(args.config, overrides=args.set)
    if args.seed is not None:
        config.seed = args.seed
    report, outcomes = run_pipeline(config)
    for outcome in outcomes:
        print(f"stage {outcome.name}: {'cached' if outcome.cached else 'ran'}")
    print(
        f"MAP@{report.cutoff} {report.map:.4f}  recall@{report.cutoff} {report.recall:.4f}  "
        f"over {report.num_queries} queries"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bioir",
        description="Desk-scale biomedical retrieval workbench",
    )
    parser.add_argument("--config", help="pipeline config file (used by the pipeline command)")
    parser.add_argument("--seed", type=int, default=None, help="seed for seeded commands")
    parser.add_argument("--verbose", action="store_true", help="chatty logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="cut a corpus into index units")
    p.add_argument("--corpus", required=True)
    p.add_argument("--unit", default="two_sent",
                   choices=[k.value for k in UnitKind])
    p.add_argument("--token-budget", type=int, default=None)
    p.add_argument("--include-title", action="store_true")
    p.add_argument("--abbreviations", default=None,
                   help="file of sentence-split guard tokens, one per line")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_segment)

    p = sub.add_parser("stats", help="term statistics over documents or segments")
    p.add_argument("--corpus")
    p.add_argument("--segments")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("build-bm25", help="build the lexical index")
    p.add_argument("--segments", required=True)
    p.add_argument("--k1", type=float, default=DEFAULT_K1)
    p.add_argument("--b", type=float, default=DEFAULT_B)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_bm25)

    p = sub.add_parser("search-bm25", help="run queries against the lexical index")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--tag", default="bm25", help="run tag written to the output file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_search_bm25)

    p = sub.add_parser("gen-pretrain", help="generate self-supervised training pairs")
    p.add_argument("--task", required=True, choices=["etm", "rsm", "ict"])
    p.add_argument("--corpus", required=True)
    p.add_argument("--m", type=int, default=None,
                   help="keyword/word count (task default when omitted)")
    p.add_argument("--etm-m", type=int, default=DEFAULT_ETM_KEYWORDS,
                   help="expanded-title keyword count used by the rsm positive side")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_pretrain)

    p = sub.add_parser("extract-templates", help="blank rare entities out of questions")
    p.add_argument("--questions", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--df-threshold", type=int, default=DEFAULT_DF_THRESHOLD)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_extract_templates)

    p = sub.add_parser("cluster-templates", help="cluster templates and pick representatives")
    p.add_argument("--templates", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_CLUSTER_THRESHOLD)
    p.add_argument("--representative", choices=["smallest", "second"], default="smallest")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_cluster_templates)

    def engine_args(p):
        p.add_argument("--engine", choices=["lexical", "dense"], default="lexical")
        p.add_argument("--model", help="model file (dense engine)")
        p.add_argument("--vectors", help="vector file when the model used a file provider")
        p.add_argument("--n-templates", type=int, default=DEFAULT_POOL_SIZE)

    p = sub.add_parser("gen-questions", help="fill templates against segments")
    p.add_argument("--segments", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--lexicon", required=True)
    engine_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_questions)

    p = sub.add_parser("build-tempqg", help="generate question/context training pairs")
    p.add_argument("--segments", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--lexicon", required=True)
    engine_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_tempqg)

    p = sub.add_parser("train", help="train codes and query projection with SGD")
    p.add_argument("--pairs", required=True)
    p.add_argument("--pretrain-pairs", default=None)
    p.add_argument("--schedule", choices=["sequential", "multitask"], default="sequential")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--embedder", choices=["hashing", "file"], default="hashing")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--embed-seed", type=int, default=13)
    p.add_argument("--n-hash", type=int, default=8)
    p.add_argument("--vectors", default=None)
    p.add_argument("--epochs", type=int, default=120)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--learning-rate", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("grad-check", help="analytic vs central-difference gradients")
    p.add_argument("--batches", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--embed-seed", type=int, default=13)
    p.add_argument("--n-hash", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_grad_check)

    p = sub.add_parser("build-dense", help="encode segments into the dense index")
    p.add_argument("--segments", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--vectors", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_dense)

    p = sub.add_parser("search-dense", help="run queries against the dense index")
    p.add_argument("--index", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--vectors", default=None)
    p.add_argument("--top-k", type=int, default=100)
    p.add_argument("--tag", default="dense", help="run tag written to the output file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_search_dense)

    p = sub.add_parser("hybrid", help="fuse lexical and dense runs")
    p.add_argument("--bm25-run", required=True)
    p.add_argument("--dense-run", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_hybrid)

    p = sub.add_parser("aggregate", help="roll segment runs up to documents")
    p.add_argument("--run", required=True)
    p.add_argument("--segments", required=True)
    p.add_argument("--top-n", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_aggregate)

    p = sub.add_parser("eval", help="MAP and recall against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--cutoff", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("fixture", help="write the synthetic evaluation fixture")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-docs", type=int, default=200)
    p.add_argument("--vocab-size", type=int, default=120)
    p.set_defaults(fn=cmd_fixture)

    p = sub.add_parser("pipeline", help="run the staged pipeline from a config file")
    p.add_argument("--config", default=argparse.SUPPRESS,
                   help="pipeline config file (same as the global flag)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.seed is None and args.command in ("fixture", "gen-pretrain", "grad-check", "train"):
        args.seed = 1 if args.command == "fixture" else 0
    if args.command == "pipeline" and not args.config:
        print("config error: pipeline requires --config", file=sys.stderr)
        return 2
    try:
        args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except StageError as exc:
        print(f"{exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # an unreadable input or unwritable output path
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
