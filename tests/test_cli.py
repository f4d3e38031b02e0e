"""Tests for the command-line interface.

Every invocation goes through main(argv) so the tests see exactly what a
shell would: return codes and printed output. A module-scoped workspace runs
the subcommands in dependency order once; the error-path tests are
independent of it.
"""

import json
import os
import struct

import numpy as np
import pytest

from bioir.cli import main
from bioir.corpus import read_jsonl
from bioir.pipeline import PipelineConfig, run_pipeline


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with every artifact the subcommands chain together."""
    root = tmp_path_factory.mktemp("ws")
    paths = {
        "root": root,
        "fx": root / "fx",
        "segments": root / "segments.jsonl",
        "stats": root / "stats.json",
        "bm25": root / "bm25.json",
        "bm25_seg_run": root / "run_bm25_seg.trec",
        "bm25_doc_run": root / "run_bm25_docs.trec",
        "rsm": root / "rsm.jsonl",
        "templates": root / "templates.jsonl",
        "pool": root / "pool.jsonl",
        "tempqg": root / "tempqg.jsonl",
        "model": root / "model.pdmo",
        "dense": root / "dense.pdix",
        "dense_seg_run": root / "run_dense_seg.trec",
        "dense_doc_run": root / "run_dense_docs.trec",
        "hybrid_run": root / "run_hybrid.trec",
    }
    fx = paths["fx"]
    steps = [
        ["fixture", "--out-dir", str(fx), "--n-docs", "12"],
        ["segment", "--corpus", f"{fx}/corpus.jsonl", "--out", str(paths["segments"])],
        ["stats", "--corpus", f"{fx}/corpus.jsonl", "--out", str(paths["stats"])],
        ["build-bm25", "--segments", str(paths["segments"]), "--out", str(paths["bm25"])],
        ["search-bm25", "--index", str(paths["bm25"]), "--queries", f"{fx}/queries.jsonl",
         "--out", str(paths["bm25_seg_run"])],
        ["aggregate", "--run", str(paths["bm25_seg_run"]), "--segments", str(paths["segments"]),
         "--out", str(paths["bm25_doc_run"])],
        ["gen-pretrain", "--task", "rsm", "--corpus", f"{fx}/corpus.jsonl",
         "--out", str(paths["rsm"])],
        ["extract-templates", "--questions", f"{fx}/train_questions.jsonl",
         "--lexicon", f"{fx}/lexicon.tsv", "--out", str(paths["templates"])],
        ["cluster-templates", "--templates", str(paths["templates"]),
         "--out", str(paths["pool"])],
        ["build-tempqg", "--segments", str(paths["segments"]), "--pool", str(paths["pool"]),
         "--lexicon", f"{fx}/lexicon.tsv", "--out", str(paths["tempqg"])],
        ["train", "--pairs", str(paths["tempqg"]), "--pretrain-pairs", str(paths["rsm"]),
         "--dim", "16", "--n-hash", "2", "--epochs", "2", "--batch-size", "8",
         "--out", str(paths["model"])],
        ["build-dense", "--segments", str(paths["segments"]), "--model", str(paths["model"]),
         "--out", str(paths["dense"])],
        ["search-dense", "--index", str(paths["dense"]), "--model", str(paths["model"]),
         "--queries", f"{fx}/queries.jsonl", "--out", str(paths["dense_seg_run"])],
        ["aggregate", "--run", str(paths["dense_seg_run"]), "--segments", str(paths["segments"]),
         "--out", str(paths["dense_doc_run"])],
        ["hybrid", "--bm25-run", str(paths["bm25_doc_run"]),
         "--dense-run", str(paths["dense_doc_run"]), "--out", str(paths["hybrid_run"])],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv}"
    return paths


class TestChain:
    def test_artifacts_exist(self, ws):
        for key in ("segments", "bm25", "model", "dense", "hybrid_run"):
            assert os.path.exists(ws[key])

    def test_eval_prints_map(self, ws, capsys):
        report = ws["root"] / "report.json"
        rc = main([
            "eval", "--run", str(ws["hybrid_run"]), "--qrels", f"{ws['fx']}/qrels.tsv",
            "--out", str(report),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("MAP@10 ")
        assert json.loads(open(report).read())["num_queries"] == 6

    def test_eval_cutoff_flag(self, ws, capsys):
        rc = main([
            "eval", "--run", str(ws["bm25_doc_run"]), "--qrels", f"{ws['fx']}/qrels.tsv",
            "--cutoff", "5",
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith("MAP@5 ")

    def test_gen_questions_rows(self, ws, capsys):
        out = ws["root"] / "questions.jsonl"
        rc = main([
            "gen-questions", "--segments", str(ws["segments"]), "--pool", str(ws["pool"]),
            "--lexicon", f"{ws['fx']}/lexicon.tsv", "--out", str(out),
        ])
        assert rc == 0
        rows = [obj for _, obj in read_jsonl(str(out))]
        assert rows
        for row in rows:
            assert set(row) == {"question", "segment_id", "doc_id"}
            assert row["question"].endswith("?")

    def test_dense_template_engine(self, ws):
        out = ws["root"] / "tempqg_dense.jsonl"
        rc = main([
            "build-tempqg", "--segments", str(ws["segments"]), "--pool", str(ws["pool"]),
            "--lexicon", f"{ws['fx']}/lexicon.tsv", "--engine", "dense",
            "--model", str(ws["model"]), "--out", str(out),
        ])
        assert rc == 0
        assert os.path.exists(out)

    def test_stats_prints_summary(self, ws, capsys):
        rc = main([
            "stats", "--segments", str(ws["segments"]), "--out", str(ws["root"] / "s2.json"),
        ])
        assert rc == 0
        assert "distinct terms" in capsys.readouterr().out


class TestCliPipelineParity:
    """The subcommand chain and a pipeline run on the same settings write the same bytes."""

    SHARED = {
        "segments": "segments.jsonl",
        "bm25": "bm25_index.json",
        "bm25_seg_run": "run_bm25_segments.trec",
        "bm25_doc_run": "run_bm25_docs.trec",
        "rsm": "pairs_pretrain.jsonl",
        "templates": "templates_raw.jsonl",
        "pool": "template_pool.jsonl",
        "tempqg": "pairs_tempqg.jsonl",
        "model": "model.pdmo",
        "dense": "dense_index.pdix",
        "dense_seg_run": "run_dense_segments.trec",
        "dense_doc_run": "run_dense_docs.trec",
        "hybrid_run": "run_hybrid_docs.trec",
    }

    def test_chain_and_pipeline_write_identical_files(self, ws):
        fx, workdir = ws["fx"], ws["root"] / "parity"
        run_pipeline(PipelineConfig(
            corpus=f"{fx}/corpus.jsonl", queries=f"{fx}/queries.jsonl",
            qrels=f"{fx}/qrels.tsv", train_questions=f"{fx}/train_questions.jsonl",
            lexicon=f"{fx}/lexicon.tsv", workdir=str(workdir), mode="hybrid",
            dim=16, n_hash=2, epochs=2, batch_size=8, seed=0, train_seed=0, top_docs=10,
        ))
        differ = [
            f"{ws[key].name} vs {name}"
            for key, name in self.SHARED.items()
            if ws[key].read_bytes() != (workdir / name).read_bytes()
        ]
        assert not differ, differ


class TestSeeds:
    def test_fixture_seed_defaults_to_one(self, tmp_path):
        assert main(["fixture", "--out-dir", str(tmp_path / "a"), "--n-docs", "10"]) == 0
        assert main(["--seed", "1", "fixture", "--out-dir", str(tmp_path / "b"),
                     "--n-docs", "10"]) == 0
        a = open(tmp_path / "a" / "corpus.jsonl", "rb").read()
        b = open(tmp_path / "b" / "corpus.jsonl", "rb").read()
        assert a == b

    def test_fixture_seed_changes_output(self, tmp_path):
        assert main(["--seed", "2", "fixture", "--out-dir", str(tmp_path / "c"),
                     "--n-docs", "10"]) == 0
        assert main(["fixture", "--out-dir", str(tmp_path / "d"), "--n-docs", "10"]) == 0
        c = open(tmp_path / "c" / "corpus.jsonl", "rb").read()
        d = open(tmp_path / "d" / "corpus.jsonl", "rb").read()
        assert c != d


class TestGradCheck:
    def test_pass(self, capsys):
        rc = main(["grad-check", "--batches", "2", "--batch-size", "2",
                   "--k", "2", "--dim", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_fail_is_stage_error(self, capsys):
        rc = main(["grad-check", "--batches", "1", "--batch-size", "2",
                   "--k", "2", "--dim", "8", "--tolerance", "1e-18"])
        captured = capsys.readouterr()
        assert rc == 4
        assert "FAIL" in captured.out
        assert "grad-check" in captured.err


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path, capsys):
        rc = main(["stats", "--corpus", "a", "--segments", "b",
                   "--out", str(tmp_path / "s.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_data_error_is_three(self, tmp_path, capsys):
        bad = tmp_path / "run.trec"
        bad.write_text("only three columns\n")
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("q1\td1\n")
        rc = main(["eval", "--run", str(bad), "--qrels", str(qrels)])
        assert rc == 3
        assert "data error" in capsys.readouterr().err

    def test_argparse_misuse_is_two(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2

    def test_pipeline_without_config_is_two(self, capsys):
        assert main(["pipeline"]) == 2
        assert "requires --config" in capsys.readouterr().err

    def test_missing_or_unwritable_path_is_two(self, ws, tmp_path, capsys):
        missing, unwritable = tmp_path / "nope.json", tmp_path / "no_dir" / "out"
        fx = ws["fx"]
        cases = [
            (["search-bm25", "--index", str(missing), "--queries", f"{fx}/queries.jsonl",
              "--out", str(tmp_path / "r.trec")], missing),
            (["search-bm25", "--index", str(ws["bm25"]), "--queries", f"{fx}/queries.jsonl",
              "--out", str(unwritable)], unwritable),
            (["segment", "--corpus", str(missing), "--out", str(tmp_path / "s.jsonl")], missing),
            (["segment", "--corpus", f"{fx}/corpus.jsonl", "--out", str(unwritable)], unwritable),
        ]
        wrong = []
        for argv, path in cases:
            try:
                rc = main(argv)
            except Exception as exc:  # a traceback is exactly what must not happen
                wrong.append(f"{argv[0]} {path.name}: raised {exc!r}")
                continue
            err = capsys.readouterr().err
            if rc != 2 or "config error" not in err or str(path) not in err:
                wrong.append(f"{argv[0]} {path.name}: exit {rc}, stderr {err!r}")
        assert not wrong, wrong

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_train_rejects_non_finite_learning_rate(self, ws, tmp_path, capsys, rate):
        out = tmp_path / "model.pdmo"
        rc = main(["train", "--pairs", str(ws["tempqg"]), "--dim", "8", "--n-hash", "2",
                   "--epochs", "1", "--learning-rate", rate, "--out", str(out)])
        assert rc == 2
        assert "learning rate" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_training_is_stage_failure(self, ws, tmp_path, capsys):
        out = tmp_path / "model.pdmo"
        rc = main(["train", "--pairs", str(ws["tempqg"]), "--dim", "8", "--n-hash", "2",
                   "--epochs", "2", "--batch-size", "4", "--learning-rate", "1e200",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 4
        assert "non-finite" in err and "epoch 1 step" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_mistyped_string_field_is_data_error(self, ws, tmp_path, capsys):
        fx = ws["fx"]
        bad = tmp_path / "bad.jsonl"
        out = str(tmp_path / "out")
        lexicon = f"{fx}/lexicon.tsv"
        segment = {"segment_id": "s1", "doc_id": "d1", "ordinal": 0, "unit_kind": "two_sent",
                   "text": "p53 binds"}
        # (argv reading `bad`, record with one field of the wrong JSON type)
        cases = [
            (["search-bm25", "--index", str(ws["bm25"]), "--queries", str(bad), "--out", out],
             {"query_id": "q1", "text": 5}),
            (["search-bm25", "--index", str(ws["bm25"]), "--queries", str(bad), "--out", out],
             {"query_id": 1, "text": "what binds p53"}),
            (["extract-templates", "--questions", str(bad), "--lexicon", lexicon, "--out", out],
             {"question_id": "q1", "text": ["what", "binds"]}),
            (["extract-templates", "--questions", str(bad), "--lexicon", lexicon, "--out", out],
             {"question_id": None, "text": "what binds p53"}),
            (["cluster-templates", "--templates", str(bad), "--out", out],
             {"pattern": 3, "source_question_ids": ["q1"]}),
            (["build-tempqg", "--segments", str(ws["segments"]), "--pool", str(bad),
              "--lexicon", lexicon, "--out", out], {"pattern": {"a": "_"}, "cluster_id": 0}),
            (["train", "--pairs", str(bad), "--dim", "8", "--n-hash", "2", "--epochs", "1",
              "--out", out], {"query": 5, "positive": "p53 binds", "task": "RSM",
                              "source_doc_id": "d1"}),
            (["build-bm25", "--segments", str(bad), "--out", out], dict(segment, text=5)),
            (["build-bm25", "--segments", str(bad), "--out", out], dict(segment, ordinal="zero")),
            (["build-bm25", "--segments", str(bad), "--out", out], dict(segment, ordinal=True)),
            (["segment", "--corpus", str(bad), "--out", out],
             {"id": 1, "title": 5, "abstract": ["x"]}),
        ]
        # Line 1 holds the same keys with valid values, so line 2 is the first bad one.
        valid = {"ordinal": 0, "unit_kind": "two_sent", "task": "RSM"}
        wrong = []
        for argv, record in cases:
            good = {k: valid.get(k, "x") for k in record}
            bad.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
            try:
                rc = main(argv)
            except Exception as exc:  # a traceback is exactly what must not happen
                wrong.append(f"{argv[0]} {record}: raised {exc!r}")
                continue
            err = capsys.readouterr().err
            if rc != 3 or "data error" not in err or f"{bad}:2" not in err:
                wrong.append(f"{argv[0]} {record}: exit {rc}, stderr {err!r}")
        assert not wrong, wrong

    def test_unembeddable_query_names_file_and_id(self, ws, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(json.dumps({"query_id": "q1", "text": "what binds p53"}) + "\n"
                           + json.dumps({"query_id": "q-punct", "text": "???"}) + "\n")
        out = tmp_path / "run.trec"
        rc = main(["search-dense", "--index", str(ws["dense"]), "--model", str(ws["model"]),
                   "--queries", str(queries), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert f"{queries}: query 'q-punct'" in err and "no tokens" in err
        assert not out.exists()
        # BM25 has no such restriction: the same query finds nothing.
        assert main(["search-bm25", "--index", str(ws["bm25"]), "--queries", str(queries),
                     "--out", str(out)]) == 0


class TestPipelineCommand:
    def write_config(self, ws, workdir):
        fx = ws["fx"]
        conf = ws["root"] / f"{os.path.basename(workdir)}.conf"
        conf.write_text(
            f"corpus = {fx}/corpus.jsonl\n"
            f"queries = {fx}/queries.jsonl\n"
            f"qrels = {fx}/qrels.tsv\n"
            f"workdir = {workdir}\n"
            "mode = bm25\n"
        )
        return conf

    def test_runs_and_reports(self, ws, capsys):
        conf = self.write_config(ws, ws["root"] / "pw")
        rc = main(["pipeline", "--config", str(conf)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stage segment_index: ran" in out
        assert "MAP@10" in out

    def test_second_run_cached_with_global_config_flag(self, ws, capsys):
        conf = self.write_config(ws, ws["root"] / "pw2")
        assert main(["pipeline", "--config", str(conf)]) == 0
        capsys.readouterr()
        rc = main(["--config", str(conf), "pipeline"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stage evaluate: cached" in out

    def test_set_overrides(self, ws, capsys):
        conf = self.write_config(ws, ws["root"] / "pw3")
        rc = main(["pipeline", "--config", str(conf), "--set", "cutoff=5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MAP@5" in out

    def test_diverging_training_fails_the_train_stage(self, ws, capsys):
        workdir = ws["root"] / "pw_diverge"
        conf = self.write_config(ws, workdir)
        fx = ws["fx"]
        with open(conf, "a", encoding="utf-8") as fh:
            fh.write(f"train_questions = {fx}/train_questions.jsonl\nlexicon = {fx}/lexicon.tsv\n")
        rc = main(["pipeline", "--config", str(conf), "--set", "mode=dense", "--set", "epochs=2",
                   "--set", "dim=8", "--set", "learning_rate=1e200"])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.count("stage 'train' failed") == 1 and "non-finite" in err
        assert "Traceback" not in err
        assert not (workdir / "model.pdmo").exists()

    def test_unknown_config_key_is_two(self, ws, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("no_such_key = 1\n")
        assert main(["pipeline", "--config", str(conf)]) == 2
        assert "no_such_key" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "k1=nan", "b=inf", "cluster_threshold=nan", "learning_rate=inf", "learning_rate=-inf",
        "top_k=0", "top_docs=0", "cutoff=0",
    ])
    def test_bad_numeric_value_rejected_before_any_stage(self, ws, capsys, override):
        workdir = ws["root"] / f"pw_{override.replace('=', '_').replace('-', 'm')}"
        conf = self.write_config(ws, workdir)
        assert main(["pipeline", "--config", str(conf), "--set", override]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and override.split("=")[0] in err
        assert not workdir.exists()


def container_variants(raw: bytes):
    """(label, bytes) for corrupt copies of a .pdix/.pdmo container."""
    magic, header_len = raw[:4], struct.unpack("<I", raw[8:12])[0]
    header = json.loads(raw[12 : 12 + header_len])
    payload = raw[12 + header_len :]

    def pack(h, body=payload):
        blob = json.dumps(h, sort_keys=True, separators=(",", ":")).encode()
        return magic + struct.pack("<II", 1, len(blob)) + blob + body

    end = 12 + header_len
    for cut in (0, 3, 11, 12, 12 + header_len // 2, end - 1, end, end + 5,
                len(raw) - 8, len(raw) - 1):
        yield f"truncated at {cut}", raw[:cut]
    yield "header length too large", raw[:8] + struct.pack("<I", len(raw)) + raw[12:]
    yield "header not JSON", raw[:12] + b"x" + raw[13:]
    yield "header not an object", pack([1, 2])
    for key in sorted(header):
        yield f"without '{key}'", pack({k: v for k, v in header.items() if k != key})
        yield f"'{key}' mistyped", pack({**header, key: None})
    yield "zero d", pack({**header, "d": 0})
    nan = struct.pack("<d", float("nan"))
    yield "NaN first value", pack(header, nan + payload[8:])
    yield "inf last value", pack(header, payload[:-8] + struct.pack("<d", float("inf")))


class TestCorruptDenseArtifacts:
    @pytest.mark.parametrize("kind", ["dense", "model"])
    def test_corrupt_container_is_data_error(self, ws, tmp_path, capsys, kind):
        paths = {"dense": tmp_path / "dense.pdix", "model": tmp_path / "model.pdmo"}
        for key, path in paths.items():
            path.write_bytes(ws[key].read_bytes())
        argv = ["search-dense", "--index", str(paths["dense"]), "--model", str(paths["model"]),
                "--queries", f"{ws['fx']}/queries.jsonl", "--out", str(tmp_path / "run.trec")]
        assert main(argv) == 0
        capsys.readouterr()

        wrong = []
        for label, data in container_variants(ws[kind].read_bytes()):
            paths[kind].write_bytes(data)
            try:
                rc = main(argv)
            except Exception as exc:  # a traceback is exactly what must not happen
                wrong.append(f"{label}: raised {exc!r}")
                continue
            err = capsys.readouterr().err
            if rc != 3 or "data error" not in err or str(paths[kind]) not in err:
                wrong.append(f"{label}: exit {rc}, stderr {err!r}")
        assert not wrong, wrong


def bm25_index_variants(raw: bytes):
    """(label, bytes) for corrupt copies of a BM25 index file."""
    index = json.loads(raw)

    def dump(obj):
        return json.dumps(obj).encode()

    for cut in (0, 1, 300, len(raw) // 2, len(raw) - 1):
        yield f"truncated at {cut}", raw[:cut]
    yield "top level a list", b"[1, 2]"
    for key in sorted(index):
        yield f"without '{key}'", dump({k: v for k, v in index.items() if k != key})
        yield f"'{key}' mistyped", dump({**index, key: "x"})
    first_ref = sorted(index["segment_lengths"])[0]
    yield "length not an integer", dump(
        {**index, "segment_lengths": {**index["segment_lengths"], first_ref: "3"}}
    )
    term = sorted(index["postings"])[0]
    for label, posting in [
        ("posting of one element", ["a"]),
        ("posting count a string", [first_ref, "2"]),
        ("posting of an unknown segment", ["no-such-segment", 1]),
        ("posting not a list", 5),
    ]:
        yield label, dump({**index, "postings": {**index["postings"], term: [posting]}})


class TestCorruptBm25Index:
    def test_corrupt_index_is_data_error(self, ws, tmp_path, capsys):
        path = tmp_path / "bm25.json"
        argv = ["search-bm25", "--index", str(path), "--queries", f"{ws['fx']}/queries.jsonl",
                "--out", str(tmp_path / "run.trec")]
        path.write_bytes(ws["bm25"].read_bytes())
        assert main(argv) == 0
        capsys.readouterr()

        wrong = []
        for label, data in bm25_index_variants(ws["bm25"].read_bytes()):
            path.write_bytes(data)
            try:
                rc = main(argv)
            except Exception as exc:  # a traceback is exactly what must not happen
                wrong.append(f"{label}: raised {exc!r}")
                continue
            err = capsys.readouterr().err
            if rc != 3 or "data error" not in err or str(path) not in err:
                wrong.append(f"{label}: exit {rc}, stderr {err!r}")
        assert not wrong, wrong


class TestBadTrainingVectorFile:
    """`train --embedder file` with one bad entry exits 3 and names the pair."""

    def run_with(self, tmp_path, capsys, entry, tamper):
        from bioir.embedding import HashingEmbedder, dump_vectors, text_key
        from bioir.pretrain import TASK_SUPERVISED, TrainingPair, save_pairs

        pairs = [TrainingPair(f"ask k{i}", f"body k{i} more words", TASK_SUPERVISED, f"d{i}")
                 for i in range(4)]
        pairs_path, vectors = tmp_path / "pairs.jsonl", tmp_path / "vectors.npz"
        save_pairs(str(pairs_path), pairs)
        dump_vectors(str(vectors), HashingEmbedder(dim=8, seed=1),
                     [p.positive_text for p in pairs], [p.query_text for p in pairs])
        with np.load(vectors) as archive:
            arrays = dict(archive)
        text = pairs[2].positive_text if entry == "tok" else pairs[2].query_text
        key = f"{entry}:{text_key(text)}"
        arrays[key] = tamper(arrays[key])
        np.savez(vectors, **arrays)
        rc = main(["train", "--pairs", str(pairs_path), "--embedder", "file",
                   "--vectors", str(vectors), "--k", "2", "--epochs", "1",
                   "--batch-size", "2", "--out", str(tmp_path / "model.pdmo")])
        return rc, capsys.readouterr().err

    def with_nan(self, a):
        a = a.copy()
        a.reshape(-1)[0] = np.nan
        return a

    @pytest.mark.parametrize("entry,tamper,problem", [
        ("tok", "nan", "non-finite token vectors"),
        ("tok", lambda h: h[:0], "token matrix of shape (0, 8)"),
        ("tok", lambda h: h[0], "context entry is not a token matrix"),
        ("qry", "nan", "non-finite query vector"),
        ("qry", lambda u: np.full_like(u, np.inf), "non-finite query vector"),
    ])
    def test_exits_three_naming_the_pair(self, tmp_path, capsys, entry, tamper, problem):
        tamper = self.with_nan if tamper == "nan" else tamper
        rc, err = self.run_with(tmp_path, capsys, entry, tamper)
        assert rc == 3
        assert err.startswith("data error: pair 3 ")
        assert problem in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "model.pdmo")
