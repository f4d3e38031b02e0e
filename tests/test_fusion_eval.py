import json
import random

import pytest

from bioir import ConfigError, DataError
from bioir.fusion_eval import (
    EvalReport,
    RunList,
    aggregate_documents,
    average_precision,
    evaluate_run,
    hybrid_fuse,
    normalize_scores,
    read_qrels,
    read_trec_run,
    recall_at,
    write_qrels,
    write_trec_run,
)


class TestNormalize:
    def test_hand_min_max(self):
        got = normalize_scores([("a", 4.0), ("b", 1.0), ("c", 2.0)])
        assert dict(got) == {"a": 1.0, "b": 0.0, "c": pytest.approx(1 / 3)}

    def test_constant_scores_all_one(self):
        got = normalize_scores([("a", 2.5), ("b", 2.5)])
        assert dict(got) == {"a": 1.0, "b": 1.0}

    def test_empty(self):
        assert normalize_scores([]) == []

    def test_range_property(self):
        rng = random.Random(1)
        for _ in range(30):
            hits = [(f"r{i}", rng.uniform(-50, 50)) for i in range(rng.randint(1, 12))]
            vals = [v for _, v in normalize_scores(hits)]
            assert all(0.0 <= v <= 1.0 for v in vals)
            if len(set(s for _, s in hits)) > 1:
                assert min(vals) == 0.0 and max(vals) == 1.0


class TestRunList:
    def test_sorts_and_validates(self):
        run = RunList("q1", [("b", 1.0), ("a", 3.0), ("c", 3.0)], method="bm25")
        assert run.refs == ["a", "c", "b"]

    def test_duplicate_refs_rejected(self):
        with pytest.raises(DataError):
            RunList("q1", [("a", 1.0), ("a", 2.0)], method="bm25")


class TestHybrid:
    def test_hand_fusion(self):
        bm25 = RunList("q1", [("x", 10.0), ("y", 5.0)], method="bm25")
        dense = RunList("q1", [("y", 2.0), ("z", 1.0)], method="dense")
        fused = hybrid_fuse(bm25, dense)
        # normalized bm25: x=1, y=0; normalized dense: y=1, z=0.
        assert dict(fused.hits) == {"x": 1.0, "y": 1.0, "z": 0.0}
        assert fused.method == "hybrid"

    def test_top_of_both_scores_two(self):
        bm25 = RunList("q1", [("top", 8.0), ("b", 2.0)], method="bm25")
        dense = RunList("q1", [("top", 0.9), ("c", 0.1)], method="dense")
        fused = hybrid_fuse(bm25, dense)
        assert dict(fused.hits)["top"] == 2.0

    def test_empty_dense_preserves_bm25_order(self):
        bm25 = RunList("q1", [("a", 9.0), ("b", 4.0), ("c", 1.0)], method="bm25")
        fused = hybrid_fuse(bm25, RunList("q1", [], method="dense"))
        assert fused.refs == bm25.refs

    def test_affine_invariance(self):
        rng = random.Random(7)
        for _ in range(20):
            refs = [f"r{i}" for i in range(6)]
            b = [(r, rng.uniform(0, 10)) for r in refs[:4]]
            d = [(r, rng.uniform(0, 10)) for r in refs[2:]]
            base = hybrid_fuse(RunList("q", b, method="bm25"), RunList("q", d, method="dense"))
            scale_b, shift_b = rng.uniform(0.1, 5), rng.uniform(-3, 3)
            scale_d, shift_d = rng.uniform(0.1, 5), rng.uniform(-3, 3)
            b2 = [(r, scale_b * s + shift_b) for r, s in b]
            d2 = [(r, scale_d * s + shift_d) for r, s in d]
            again = hybrid_fuse(RunList("q", b2, method="bm25"), RunList("q", d2, method="dense"))
            assert base.refs == again.refs

    def test_mismatched_query_ids_rejected(self):
        with pytest.raises(DataError):
            hybrid_fuse(RunList("q1", [], method="bm25"), RunList("q2", [], method="dense"))


class TestAggregate:
    def test_max_per_document(self):
        run = RunList("q1", [("s1", 3.0), ("s2", 5.0), ("s3", 1.0)], method="bm25")
        mapping = {"s1": "d1", "s2": "d1", "s3": "d2"}
        docs = aggregate_documents(run, mapping, top_n=10)
        assert dict(docs.hits) == {"d1": 5.0, "d2": 1.0}

    def test_top_n_truncates(self):
        run = RunList("q1", [(f"s{i}", float(i)) for i in range(8)], method="bm25")
        mapping = {f"s{i}": f"d{i}" for i in range(8)}
        assert len(aggregate_documents(run, mapping, top_n=3).hits) == 3

    def test_missing_mapping_rejected(self):
        run = RunList("q1", [("s1", 1.0)], method="bm25")
        with pytest.raises(DataError):
            aggregate_documents(run, {}, top_n=5)


class TestAveragePrecision:
    def test_worked_example(self):
        # Relevant at ranks 1 and 3: (1/1 + 2/3) / 2 = 0.8333...
        got = average_precision(["d1", "d3", "d2"], {"d1", "d2"})
        assert got == pytest.approx(5 / 6, abs=1e-12)

    def test_perfect_ranking(self):
        assert average_precision(["a", "b"], {"a", "b"}) == 1.0

    def test_all_misses(self):
        assert average_precision(["x", "y"], {"a"}) == 0.0

    def test_cutoff_limits_credit(self):
        # The relevant doc at rank 3 is invisible at cutoff 2.
        assert average_precision(["x", "y", "a"], {"a"}, cutoff=2) == 0.0
        assert average_precision(["x", "y", "a"], {"a"}, cutoff=3) == pytest.approx(1 / 3)

    def test_denominator_min_of_relevant_and_cutoff(self):
        # 15 relevant, cutoff 10, all top-10 relevant: AP = 1.0.
        ranked = [f"d{i}" for i in range(10)]
        relevant = {f"d{i}" for i in range(15)}
        assert average_precision(ranked, relevant, cutoff=10) == 1.0

    def test_empty_relevant_rejected(self):
        with pytest.raises(DataError):
            average_precision(["a"], set())

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ConfigError):
            average_precision(["a"], {"a"}, cutoff=0)

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 12)
            ranked = [f"d{i}" for i in range(n)]
            rng.shuffle(ranked)
            relevant = set(rng.sample(ranked, rng.randint(1, n)))
            cutoff = rng.randint(1, 12)
            hits = 0
            sum_prec = 0.0
            for rank, ref in enumerate(ranked[:cutoff], start=1):
                if ref in relevant:
                    hits += 1
                    sum_prec += hits / rank
            expect = sum_prec / min(len(relevant), cutoff)
            assert average_precision(ranked, relevant, cutoff=cutoff) == pytest.approx(
                expect, abs=1e-12
            )


class TestRecall:
    def test_hand_value(self):
        assert recall_at(["a", "x", "b"], {"a", "b", "c"}, cutoff=3) == pytest.approx(2 / 3)

    def test_cutoff(self):
        assert recall_at(["x", "a"], {"a"}, cutoff=1) == 0.0
        assert recall_at(["x", "a"], {"a"}, cutoff=2) == 1.0


class TestEvaluate:
    def runs(self):
        return {
            "q1": RunList("q1", [("d1", 3.0), ("d3", 2.0), ("d2", 1.0)], method="x"),
            "q2": RunList("q2", [("d9", 1.0)], method="x"),
        }

    def test_report_hand_values(self):
        qrels = {"q1": {"d1", "d2"}, "q2": {"d9"}}
        report = evaluate_run(self.runs(), qrels, cutoff=10)
        assert report.map == pytest.approx((5 / 6 + 1.0) / 2, abs=1e-12)
        assert report.recall == pytest.approx(1.0)
        assert report.num_queries == 2
        rows = {row["query_id"]: row for row in report.per_query}
        assert rows["q1"]["ap"] == pytest.approx(5 / 6, abs=1e-12)
        assert rows["q1"]["num_relevant"] == 2

    def test_empty_gold_skipped(self):
        qrels = {"q1": {"d1"}, "q2": set()}
        report = evaluate_run(self.runs(), qrels, cutoff=10)
        assert report.num_queries == 1
        assert report.skipped_queries == ["q2"]

    def test_query_without_run_scores_zero(self):
        qrels = {"q1": {"d1"}, "q9": {"d1"}}
        report = evaluate_run(self.runs(), qrels, cutoff=10)
        assert report.num_queries == 2
        rows = {row["query_id"]: row for row in report.per_query}
        assert rows["q9"]["ap"] == 0.0
        assert rows["q9"]["recall"] == 0.0

    def test_nothing_scorable_rejected(self):
        with pytest.raises(DataError):
            evaluate_run(self.runs(), {"q1": set()}, cutoff=10)

    def test_report_round_trip(self, tmp_path):
        qrels = {"q1": {"d1", "d2"}}
        report = evaluate_run(self.runs(), qrels, cutoff=10)
        p = str(tmp_path / "report.json")
        report.save(p)
        data = json.loads(open(p).read())
        assert data["map"] == report.map
        assert data["cutoff"] == 10
        assert [row["query_id"] for row in data["per_query"]] == ["q1"]


class TestTrecIo:
    def test_round_trip(self, tmp_path):
        runs = [
            RunList("q1", [("d2", 1.5), ("d1", 0.25)], method="bm25"),
            RunList("q2", [("d7", 3.0)], method="bm25"),
        ]
        p = str(tmp_path / "run.trec")
        write_trec_run(p, runs, tag="toolA")
        back = read_trec_run(p)
        assert set(back) == {"q1", "q2"}
        assert back["q1"].hits == runs[0].hits
        assert back["q2"].hits == runs[1].hits

    def test_six_column_format(self, tmp_path):
        p = str(tmp_path / "run.trec")
        write_trec_run(p, [RunList("q1", [("d1", 0.5)], method="m")])
        line = open(p).read().strip()
        assert line.split() == ["q1", "Q0", "d1", "1", "0.5", "m"]

    def test_tag_is_fallback_for_missing_method(self, tmp_path):
        # The run's own method names the system; the writer tag only fills in
        # when a run carries none.
        p = str(tmp_path / "run.trec")
        write_trec_run(p, [RunList("q1", [("d1", 0.5)], method=None)], tag="tagx")
        assert open(p).read().split()[5] == "tagx"

    def test_scores_survive_exactly(self, tmp_path):
        # repr round-trips doubles, so scores come back bit-identical.
        score = 1.0 / 3.0
        p = str(tmp_path / "run.trec")
        write_trec_run(p, [RunList("q1", [("d1", score)], method="m")])
        assert read_trec_run(p)["q1"].hits[0][1] == score

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.trec"
        p.write_text("q1 Q0 d1 1 0.5\n")
        with pytest.raises(DataError, match="1"):
            read_trec_run(str(p))

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_score_rejected(self, tmp_path, score):
        p = tmp_path / "bad.trec"
        p.write_text(f"q1 Q0 d1 1 0.5 dense\nq1 Q0 d2 2 {score} dense\n")
        with pytest.raises(DataError, match=rf"bad\.trec:2: non-finite score '{score}'"):
            read_trec_run(str(p))


class TestQrelsIo:
    def test_round_trip(self, tmp_path):
        qrels = {"q1": {"d1", "d2"}, "q2": {"d3"}}
        p = str(tmp_path / "q.tsv")
        write_qrels(p, qrels)
        assert read_qrels(p) == qrels
