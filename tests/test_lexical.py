import math
import random

import pytest

from bioir import ConfigError, DataError
from bioir.corpus import Document, Segment, UnitKind, segment_corpus, tokenize
from bioir.lexical import (
    DEFAULT_B,
    DEFAULT_K1,
    InvertedIndex,
    bm25_score,
    bm25_scores,
    build_index,
    search_bm25,
)


def seg(ref, text):
    return Segment(ref, ref.split("#")[0], 0, UnitKind.FULL_DOC, text)


@pytest.fixture
def hand_index():
    # Three segments with fully hand-traceable statistics.
    return build_index(
        [
            seg("s1#full_doc#0", "gene therapy gene"),
            seg("s2#full_doc#0", "gene expression"),
            seg("s3#full_doc#0", "protein folding model"),
        ]
    )


class TestHandOracle:
    def test_idf_by_hand(self, hand_index):
        # N=3; df(gene)=2 -> ln(1 + (3-2+0.5)/(2+0.5)) = ln(1.6) = ln(8/5).
        assert hand_index.idf("gene") == pytest.approx(math.log(8 / 5), abs=1e-12)
        # df(protein)=1 -> ln(1 + (3-1+0.5)/(1+0.5)) = ln(8/3).
        assert hand_index.idf("protein") == pytest.approx(math.log(8 / 3), abs=1e-12)
        # df=0 plugs straight into the formula; scoring never consults it
        # because tf=0, so the value is only a formula check.
        assert hand_index.idf("absent") == pytest.approx(math.log(8), abs=1e-12)

    def test_single_term_score_by_hand(self, hand_index):
        # s3 has exactly avg length 8/3 among {3,2,3}: len 3, avg 8/3.
        # tf=1, k1=0.9, b=0.4:
        #   norm = 1 + 0.9*(1 - 0.4 + 0.4*3/(8/3)) = 1 + 0.9*(0.6 + 0.45)
        # score = idf * 1*1.9 / (1 + 0.9*1.05)
        idf = math.log(8 / 3)
        expect = idf * 1.9 / (1 + 0.9 * (0.6 + 0.4 * 3 / (8 / 3)))
        got = bm25_score(hand_index, ["protein"], "s3#full_doc#0")
        assert got == pytest.approx(expect, abs=1e-9)

    def test_repeated_term_score_by_hand(self, hand_index):
        # "gene" in s1: tf=2, len=3, avg=8/3, idf=ln(8/5).
        idf = math.log(8 / 5)
        denom = 2 + 0.9 * (0.6 + 0.4 * 3 / (8 / 3))
        expect = idf * 2 * 1.9 / denom
        got = bm25_score(hand_index, ["gene"], "s1#full_doc#0")
        assert got == pytest.approx(expect, abs=1e-9)

    def test_query_terms_deduplicated(self, hand_index):
        once = bm25_score(hand_index, ["gene"], "s1#full_doc#0")
        twice = bm25_score(hand_index, ["gene", "gene"], "s1#full_doc#0")
        assert once == twice

    def test_multi_term_is_sum(self, hand_index):
        both = bm25_score(hand_index, ["gene", "expression"], "s2#full_doc#0")
        parts = bm25_score(hand_index, ["gene"], "s2#full_doc#0") + bm25_score(
            hand_index, ["expression"], "s2#full_doc#0"
        )
        assert both == pytest.approx(parts, abs=1e-12)


class TestSearch:
    def test_matches_exhaustive_scoring(self):
        rng = random.Random(11)
        vocab = [f"w{i}" for i in range(50)]
        segments = [
            seg(f"s{i}#full_doc#0", " ".join(rng.choice(vocab) for _ in range(rng.randint(4, 30))))
            for i in range(300)
        ]
        index = build_index(segments)
        for _ in range(25):
            query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            got = search_bm25(index, query, top_k=20)
            terms = tokenize(query)
            brute = []
            for s in segments:
                sc = bm25_score(index, terms, s.segment_id)
                if sc > 0:
                    brute.append((s.segment_id, sc))
            assert bm25_scores(index, query) == dict(brute)
            brute.sort(key=lambda x: (-x[1], x[0]))
            assert got == brute[:20]

    def test_scores_bitwise_equal_to_bm25_score(self, hand_index):
        hits = search_bm25(hand_index, "gene protein", top_k=10)
        for ref, score in hits:
            assert score == bm25_score(hand_index, ["gene", "protein"], ref)

    def test_zero_score_candidates_dropped(self, hand_index):
        assert search_bm25(hand_index, "absent", top_k=10) == []

    def test_tie_breaks_by_ref(self):
        index = build_index([seg("b#full_doc#0", "x y"), seg("a#full_doc#0", "x y")])
        hits = search_bm25(index, "x", top_k=10)
        assert [h[0] for h in hits] == ["a#full_doc#0", "b#full_doc#0"]

    def test_top_k_truncates(self, hand_index):
        assert len(search_bm25(hand_index, "gene", top_k=1)) == 1

    def test_single_term_rank_stable_under_corpus_doubling(self):
        # For one query term the idf is a common scalar, so ordering depends
        # only on per-segment tf and length and survives duplicating the
        # corpus. (Multi-term order can legitimately shift: the +0.5
        # smoothing keeps idf ratios from being scale invariant.)
        rng = random.Random(3)
        vocab = [f"t{i}" for i in range(20)]
        base = [
            seg(f"s{i}#full_doc#0", " ".join(rng.choice(vocab) for _ in range(10)))
            for i in range(40)
        ]
        doubled = base + [
            seg(f"z{i}#full_doc#0", s.text) for i, s in enumerate(base)
        ]
        i1, i2 = build_index(base), build_index(doubled)
        for q in ("t0", "t3", "t12"):
            r1 = [ref for ref, _ in search_bm25(i1, q, 40)]
            r2 = [ref for ref, _ in search_bm25(i2, q, 80) if ref.startswith("s")]
            assert r1 == r2


class TestIndexLifecycle:
    def test_round_trip_and_byte_identical(self, tmp_path, hand_index):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        hand_index.save(p1)
        loaded = InvertedIndex.load(p1)
        assert loaded.postings == hand_index.postings
        assert loaded.segment_lengths == hand_index.segment_lengths
        assert loaded.k1 == hand_index.k1 and loaded.b == hand_index.b
        loaded.save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_rebuild_is_deterministic(self, small_docs, tmp_path):
        segs = segment_corpus(small_docs, UnitKind.TWO_SENT)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        build_index(segs).save(p1)
        build_index(list(segs)).save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_duplicate_segment_rejected(self):
        s = seg("s1#full_doc#0", "x")
        with pytest.raises(DataError):
            build_index([s, s])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            build_index([])

    def test_parameter_validation(self):
        s = [seg("s1#full_doc#0", "x")]
        with pytest.raises(ConfigError):
            build_index(s, k1=-0.1)
        with pytest.raises(ConfigError):
            build_index(s, b=1.5)

    def test_defaults(self, hand_index):
        assert hand_index.k1 == DEFAULT_K1 == 0.9
        assert hand_index.b == DEFAULT_B == 0.4
