"""Tests for the staged pipeline: config parsing, caching, and small runs.

Dense training at real settings belongs to the acceptance suite; here the
end-to-end runs use a small fixture and tiny training budgets so the whole
file stays fast.
"""

import json
import os

import pytest

from bioir import ConfigError, StageError
from bioir.corpus import UnitKind, load_corpus, load_segments, segment_corpus
from bioir.fixture import make_synthetic_fixture
from bioir.pipeline import (
    PipelineConfig,
    file_checksum,
    load_queries,
    load_questions,
    run_pipeline,
)
from bioir.pretrain import load_pairs


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    out = tmp_path_factory.mktemp("fx")
    return make_synthetic_fixture(str(out), seed=5, n_docs=12)


def base_config(fx, workdir, **kw):
    defaults = dict(
        corpus=fx.corpus,
        queries=fx.queries,
        qrels=fx.qrels,
        train_questions=fx.train_questions,
        lexicon=fx.lexicon,
        workdir=str(workdir),
        mode="bm25",
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestConfigParsing:
    def test_type_coercion(self):
        cfg = PipelineConfig.from_items(
            {
                "mode": "bm25",
                "top_k": "25",
                "k1": "1.2",
                "include_title": "yes",
                "corpus": "c.jsonl",
            }
        )
        assert cfg.top_k == 25
        assert cfg.k1 == 1.2
        assert cfg.include_title is True
        assert cfg.corpus == "c.jsonl"

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="top_k"):
            PipelineConfig.from_items({"top_k": "many"})

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="include_title"):
            PipelineConfig.from_items({"include_title": "maybe"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="max_docs"):
            PipelineConfig.from_items({"max_docs": "3"})

    def test_from_file(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text(
            "# comment\n"
            "\n"
            "mode = dense\n"
            "epochs=3\n"
            "workdir = /tmp/w\n"
        )
        cfg = PipelineConfig.from_file(str(p))
        assert cfg.mode == "dense"
        assert cfg.epochs == 3
        assert cfg.workdir == "/tmp/w"

    def test_overrides_win_over_file(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("mode = dense\nepochs = 3\n")
        cfg = PipelineConfig.from_file(str(p), overrides=["epochs=9", "cutoff=5"])
        assert cfg.epochs == 9
        assert cfg.cutoff == 5

    def test_override_without_equals_rejected(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("mode = dense\n")
        with pytest.raises(ConfigError, match="epochs"):
            PipelineConfig.from_file(str(p), overrides=["epochs"])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_file("/nonexistent/run.conf")

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("mode dense\n")
        with pytest.raises(ConfigError, match="run.conf:1"):
            PipelineConfig.from_file(str(p))


class TestConfigValidation:
    def test_bad_mode(self, fx, tmp_path):
        with pytest.raises(ConfigError, match="mode"):
            base_config(fx, tmp_path, mode="both").validate()

    def test_bad_pretrain_task(self, fx, tmp_path):
        with pytest.raises(ConfigError, match="pretrain_task"):
            base_config(fx, tmp_path, pretrain_task="mlm").validate()

    def test_missing_required_key(self, fx, tmp_path):
        with pytest.raises(ConfigError, match="qrels"):
            base_config(fx, tmp_path, qrels="").validate()

    def test_missing_corpus_file(self, fx, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            base_config(fx, tmp_path, corpus=str(tmp_path / "nope.jsonl")).validate()

    def test_lexical_mode_needs_no_lexicon(self, fx, tmp_path):
        base_config(fx, tmp_path, mode="bm25", train_questions="", lexicon="").validate()

    def test_dense_tempqg_needs_lexicon(self, fx, tmp_path):
        with pytest.raises(ConfigError, match="lexicon"):
            base_config(fx, tmp_path, mode="dense", lexicon="").validate()

    def test_dense_without_tempqg_needs_no_lexicon(self, fx, tmp_path):
        base_config(
            fx, tmp_path, mode="dense", finetune_task="none",
            train_questions="", lexicon="",
        ).validate()


class TestLoaders:
    def test_load_queries_duplicate_id(self, tmp_path):
        p = tmp_path / "q.jsonl"
        p.write_text(
            json.dumps({"query_id": "q1", "text": "a"}) + "\n"
            + json.dumps({"query_id": "q1", "text": "b"}) + "\n"
        )
        from bioir import DataError

        with pytest.raises(DataError, match="duplicate"):
            load_queries(str(p))

    def test_load_questions_missing_field(self, tmp_path):
        p = tmp_path / "q.jsonl"
        p.write_text(json.dumps({"question_id": "t1"}) + "\n")
        from bioir import DataError

        with pytest.raises(DataError, match="text"):
            load_questions(str(p))


class TestLexicalRun:
    def test_end_to_end(self, fx, tmp_path):
        report, outcomes = run_pipeline(base_config(fx, tmp_path / "w"))
        # Queries quote their document's unique entities, so lexical retrieval
        # is essentially exact on the fixture.
        assert report.map >= 0.99
        assert report.num_queries == 6
        assert all(not o.cached for o in outcomes)
        names = [o.name for o in outcomes]
        assert names == [
            "segment_index", "bm25_index", "bm25_search", "bm25_aggregate", "evaluate",
        ]
        # The report is written inside the evaluate stage, so it embeds every
        # manifest except evaluate's own (which records the report checksum).
        assert [m["stage"] for m in report.manifests] == names[:-1]

    def test_aggregated_run_names_documents(self, fx, tmp_path):
        config = base_config(fx, tmp_path / "w")
        run_pipeline(config)
        doc_run = os.path.join(config.workdir, "run_bm25_docs.trec")
        refs = {line.split()[2] for line in open(doc_run)}
        assert refs
        assert all("#" not in ref for ref in refs)
        seg_run = os.path.join(config.workdir, "run_bm25_segments.trec")
        seg_refs = {line.split()[2] for line in open(seg_run)}
        assert all("#" in ref for ref in seg_refs)

    def test_rerun_fully_cached(self, fx, tmp_path):
        config = base_config(fx, tmp_path / "w")
        first, _ = run_pipeline(config)
        second, outcomes = run_pipeline(config)
        assert all(o.cached for o in outcomes)
        assert second.map == first.map
        assert second.per_query == first.per_query

    def test_param_change_invalidates_downstream_only(self, fx, tmp_path):
        config = base_config(fx, tmp_path / "w")
        run_pipeline(config)
        config2 = base_config(fx, tmp_path / "w", top_k=7)
        _, outcomes = run_pipeline(config2)
        state = {o.name: o.cached for o in outcomes}
        assert state["segment_index"] is True
        assert state["bm25_index"] is True
        assert state["bm25_search"] is False
        assert state["bm25_aggregate"] is False
        # The evaluate manifest chains over every upstream manifest, so any
        # change re-runs it even if the final run file happens to agree.
        assert state["evaluate"] is False

    def test_input_change_invalidates(self, fx, tmp_path):
        workdir = tmp_path / "w"
        queries = tmp_path / "queries.jsonl"
        queries.write_text(open(fx.queries).read())
        config = base_config(fx, workdir, queries=str(queries))
        run_pipeline(config)
        lines = open(queries).read().splitlines()
        first = json.loads(lines[0])
        first["text"] += " extra"
        queries.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        _, outcomes = run_pipeline(config)
        state = {o.name: o.cached for o in outcomes}
        assert state["segment_index"] is True
        assert state["bm25_index"] is True
        assert state["bm25_search"] is False

    def test_deleted_output_reruns_stage(self, fx, tmp_path):
        config = base_config(fx, tmp_path / "w")
        run_pipeline(config)
        os.remove(os.path.join(config.workdir, "run_bm25_docs.trec"))
        _, outcomes = run_pipeline(config)
        state = {o.name: o.cached for o in outcomes}
        assert state["bm25_search"] is True
        assert state["bm25_aggregate"] is False

    def test_identical_runs_write_identical_artifacts(self, fx, tmp_path):
        c1 = base_config(fx, tmp_path / "w1")
        c2 = base_config(fx, tmp_path / "w2")
        run_pipeline(c1)
        run_pipeline(c2)
        for name in ("segments.jsonl", "run_bm25_docs.trec"):
            a = open(os.path.join(c1.workdir, name), "rb").read()
            b = open(os.path.join(c2.workdir, name), "rb").read()
            assert a == b

    def test_bad_data_becomes_stage_error(self, fx, tmp_path):
        queries = tmp_path / "queries.jsonl"
        queries.write_text("not json\n")
        config = base_config(fx, tmp_path / "w", queries=str(queries))
        with pytest.raises(StageError) as err:
            run_pipeline(config)
        assert err.value.stage == "bm25_search"


class TestDenseRun:
    def tiny(self, fx, workdir, **kw):
        defaults = dict(
            mode="dense", dim=16, n_hash=2, epochs=2, batch_size=8,
            learning_rate=0.5,
        )
        defaults.update(kw)
        return base_config(fx, workdir, **defaults)

    def test_untrained_model_path(self, fx, tmp_path):
        config = self.tiny(
            fx, tmp_path / "w", pretrain_task="none", finetune_task="none",
            train_questions="", lexicon="",
        )
        report, outcomes = run_pipeline(config)
        names = [o.name for o in outcomes]
        assert "pretrain_pairs" not in names
        assert "tempqg_pairs" not in names
        assert os.path.exists(os.path.join(config.workdir, "model.pdmo"))
        assert 0.0 <= report.map <= 1.0

    def test_hybrid_runs_all_branches(self, fx, tmp_path):
        config = self.tiny(fx, tmp_path / "w", mode="hybrid")
        report, outcomes = run_pipeline(config)
        names = [o.name for o in outcomes]
        assert names == [
            "segment_index", "bm25_index", "bm25_search", "bm25_aggregate", "pretrain_pairs",
            "template_extract", "template_pool", "tempqg_pairs", "train", "dense_index",
            "dense_search", "dense_aggregate", "fuse", "evaluate",
        ]
        # Term statistics stay inside pretrain_pairs, and TempQG reads segments.jsonl.
        outputs = sorted(os.path.basename(p) for o in outcomes for p in o.outputs)
        assert sorted(os.listdir(config.workdir)) == sorted(outputs + ["manifests"])
        assert sorted(os.listdir(os.path.join(config.workdir, "manifests"))) == sorted(
            f"{name}.json" for name in names)
        for name in ("doc_stats.json", "segments_context.jsonl"):
            assert not os.path.exists(os.path.join(config.workdir, name))
        # Fused scores cap at 2.0 and lexical retrieval alone is exact here,
        # so the fused run stays strong even with a barely trained model.
        assert report.map >= 0.9
        assert os.path.exists(os.path.join(config.workdir, "run_hybrid_docs.trec"))

    def test_ict_pretrain_branch(self, fx, tmp_path):
        config = self.tiny(
            fx, tmp_path / "w", pretrain_task="ict", finetune_task="none",
            train_questions="", lexicon="",
        )
        _, outcomes = run_pipeline(config)
        names = [o.name for o in outcomes]
        assert "doc_stats" not in names
        assert "pretrain_pairs" in names

    def test_other_tempqg_unit_segments_contexts_separately(self, fx, tmp_path):
        config = self.tiny(fx, tmp_path / "w", pretrain_task="none", tempqg_unit="single_sent")
        _, outcomes = run_pipeline(config)
        assert "segment_context" in [o.name for o in outcomes]
        sentences = {s.text for s in segment_corpus(load_corpus(fx.corpus),
                                                    UnitKind.SINGLE_SENT)}
        pairs = load_pairs(os.path.join(config.workdir, "pairs_tempqg.jsonl"))
        assert pairs
        assert all(pair.positive_text in sentences for pair in pairs)

    def test_titled_segments_are_not_tempqg_contexts(self, fx, tmp_path):
        # Equal units, but segment_index adds titles and TempQG contexts must not.
        config = self.tiny(fx, tmp_path / "w", pretrain_task="none", include_title=True)
        _, outcomes = run_pipeline(config)
        assert "segment_context" in [o.name for o in outcomes]
        docs = load_corpus(fx.corpus)
        contexts = load_segments(os.path.join(config.workdir, "segments_context.jsonl"))
        assert contexts == segment_corpus(docs, UnitKind.TWO_SENT)
        titled = load_segments(os.path.join(config.workdir, "segments.jsonl"))
        assert titled == segment_corpus(docs, UnitKind.TWO_SENT, include_title=True)
        assert titled != contexts

    @pytest.mark.parametrize("overrides", [
        {"mode": "bm25"}, {"mode": "dense"}, {"mode": "hybrid"},
        {"mode": "hybrid", "pretrain_task": "etm", "tempqg_unit": "single_sent"},
    ], ids=["bm25", "dense", "hybrid", "hybrid-etm-single_sent"])
    def test_no_two_outputs_share_a_checksum(self, fx, tmp_path, overrides):
        config = self.tiny(fx, tmp_path / "w", **overrides)
        run_pipeline(config)
        manifests = os.path.join(config.workdir, "manifests")
        recorded = {}
        for name in os.listdir(manifests):
            with open(os.path.join(manifests, name)) as fh:
                recorded.update(json.load(fh)["outputs"])
        assert set(recorded.values()) == {file_checksum(p) for p in recorded}
        assert len(set(recorded.values())) == len(recorded), recorded
