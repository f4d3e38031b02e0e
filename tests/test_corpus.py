import json
import math
import random

import pytest

from bioir import ConfigError, DataError
from bioir.corpus import (
    CorpusStats,
    Document,
    Segment,
    UnitKind,
    compute_stats,
    load_corpus,
    load_segments,
    save_corpus,
    save_segments,
    segment_corpus,
    split_sentences,
    tfidf_weights,
    tokenize,
    top_keywords,
)


class TestTokenize:
    def test_lowercase_and_outer_punct(self):
        assert tokenize("The cat's, (whiskers)!") == ["the", "cat's", "whiskers"]

    def test_inner_hyphen_and_underscore_survive(self):
        assert tokenize("LAMP-2A GENE_X") == ["lamp-2a", "gene_x"]

    def test_empty_and_pure_punct(self):
        assert tokenize("") == []
        assert tokenize("... !!! --") == []

    def test_numbers_kept(self):
        assert tokenize("p53 binds 42 times.") == ["p53", "binds", "42", "times"]


class TestSplitSentences:
    def test_plain_two_sentences(self):
        got = split_sentences("The cell divides. The cycle repeats.")
        assert got == ["The cell divides.", "The cycle repeats."]

    def test_abbreviation_guard(self):
        got = split_sentences("E. coli grows. It divides.")
        assert got == ["E. coli grows.", "It divides."]

    def test_et_al_guard_even_before_uppercase(self):
        got = split_sentences("Smith et al. Showed the effect. It held.")
        assert got == ["Smith et al. Showed the effect.", "It held."]

    def test_question_and_exclamation(self):
        got = split_sentences("Is it real? It is! Good.")
        assert got == ["Is it real?", "It is!", "Good."]

    def test_no_terminal_punct_is_one_sentence(self):
        assert split_sentences("no punctuation at all") == ["no punctuation at all"]

    def test_lowercase_after_period_does_not_split(self):
        got = split_sentences("Values reached 3.5 fold. Then fell.")
        assert got == ["Values reached 3.5 fold.", "Then fell."]

    def test_custom_abbreviations(self):
        text = "See spec. Then build."
        assert len(split_sentences(text)) == 2
        assert len(split_sentences(text, abbreviations=frozenset({"spec."}))) == 1

    def test_reconstruction(self):
        text = "First one. Second one? Third one!"
        assert " ".join(split_sentences(text)) == text


class TestSegmentCorpus:
    def test_two_sent_sliding_window(self):
        doc = Document("d1", "t", "A one. B two. C three.")
        segs = segment_corpus([doc], UnitKind.TWO_SENT)
        assert [s.text for s in segs] == ["A one. B two.", "B two. C three."]
        assert [s.segment_id for s in segs] == ["d1#two_sent#0", "d1#two_sent#1"]
        assert all(s.doc_id == "d1" for s in segs)

    def test_two_sent_single_sentence_doc(self):
        doc = Document("d1", "t", "Only one here.")
        segs = segment_corpus([doc], UnitKind.TWO_SENT)
        assert [s.text for s in segs] == ["Only one here."]

    def test_chunk_packs_whole_sentences(self):
        s1 = "Alpha " + " ".join(f"a{i}" for i in range(59)) + "."
        s2 = "Beta " + " ".join(f"b{i}" for i in range(59)) + "."
        s3 = "Gamma " + " ".join(f"c{i}" for i in range(59)) + "."
        doc = Document("d1", "t", f"{s1} {s2} {s3}")
        segs = segment_corpus([doc], UnitKind.CHUNK128)
        assert [s.text for s in segs] == [f"{s1} {s2}", s3]

    def test_chunk_oversize_sentence_kept_whole(self):
        big = "Whale " + " ".join(f"w{i}" for i in range(199)) + "."
        doc = Document("d1", "t", f"Short one. {big}")
        segs = segment_corpus([doc], UnitKind.CHUNK128)
        assert [s.text for s in segs] == ["Short one.", big]

    def test_chunk_budget_override(self):
        doc = Document("d1", "t", "One two three. Four five six.")
        segs = segment_corpus([doc], UnitKind.CHUNK128, token_budget=3)
        assert len(segs) == 2
        with pytest.raises(ConfigError):
            segment_corpus([doc], UnitKind.CHUNK128, token_budget=0)

    def test_full_doc_includes_title(self):
        doc = Document("d1", "The title", "The abstract body.")
        segs = segment_corpus([doc], UnitKind.FULL_DOC)
        assert [s.text for s in segs] == ["The title The abstract body."]

    def test_include_title_prefixes_other_units(self):
        doc = Document("d1", "My title", "A one. B two.")
        segs = segment_corpus([doc], UnitKind.SINGLE_SENT, include_title=True)
        assert segs[0].text == "My title A one."

    def test_unit_kind_parse_rejects_unknown(self):
        with pytest.raises(ConfigError):
            UnitKind.parse("three_sent")

    def test_coverage_property(self):
        # Every abstract sentence must land in at least one segment, any unit kind.
        rng = random.Random(5)
        for _ in range(20):
            sents = [
                " ".join(rng.choice(["alpha", "beta", "gamma", "delta"])
                         for _ in range(rng.randint(3, 8))).capitalize() + "."
                for _ in range(rng.randint(1, 6))
            ]
            doc = Document("d", "t", " ".join(sents))
            for kind in (UnitKind.TWO_SENT, UnitKind.SINGLE_SENT, UnitKind.CHUNK128):
                segs = segment_corpus([doc], kind)
                joined = " ".join(s.text for s in segs)
                for sent in split_sentences(doc.abstract):
                    assert sent in joined


class TestStats:
    def test_counts_by_hand(self, small_docs, small_stats):
        assert small_stats.num_docs == 4
        # "receptor" appears in d2 (twice) and d3 (once): df 2.
        assert small_stats.df("receptor") == 2
        assert small_stats.df("autophagy") == 1
        assert small_stats.df("nonexistent") == 0
        total = sum(len(tokenize(d.text)) for d in small_docs)
        assert small_stats.avg_doc_len == pytest.approx(total / 4)

    def test_duplicate_ids_rejected(self, small_docs):
        with pytest.raises(DataError):
            compute_stats([small_docs[0], small_docs[0]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            compute_stats([])

    def test_order_insensitive(self, small_docs):
        a = compute_stats(small_docs)
        b = compute_stats(list(reversed(small_docs)))
        assert a.to_json() == b.to_json()

    def test_term_strings_shared_across_units(self, small_stats):
        # "receptor" and "damaged" each occur in two units: one str object serves both.
        seen = {}
        for tf in small_stats.term_freqs.values():
            for term in tf:
                assert seen.setdefault(term, term) is term

    def test_phrase_df(self, small_docs, small_stats):
        # "damaged proteins" occurs in d1 and d4 (both words in the same unit).
        assert small_stats.phrase_df(["damaged", "proteins"]) == 2
        assert small_stats.phrase_df(["receptor", "autophagy"]) == 0

    def test_json_round_trip(self, small_stats):
        back = CorpusStats.from_json(small_stats.to_json())
        assert back.to_json() == small_stats.to_json()

    def test_stats_over_segments(self, small_docs):
        segs = segment_corpus(small_docs, UnitKind.SINGLE_SENT)
        stats = compute_stats(segs)
        assert stats.num_docs == len(segs)


class TestTfidf:
    def test_hand_oracle(self):
        # 4 docs; in "apple banana apple": tf(apple)=2 df(apple)=1, tf(banana)=1 df(banana)=3.
        docs = [
            Document("d1", "", "apple banana apple"),
            Document("d2", "", "banana cherry"),
            Document("d3", "", "banana date"),
            Document("d4", "", "cherry date"),
        ]
        stats = compute_stats(docs)
        w = tfidf_weights("apple banana apple", stats)
        raw_apple = 2 * math.log(4 / 2)
        raw_banana = 1 * math.log(4 / 4)  # exactly zero
        assert w["apple"] == pytest.approx(raw_apple / raw_apple)
        assert w["banana"] == pytest.approx(raw_banana)
        assert sum(w.values()) == pytest.approx(1.0)

    def test_unseen_term_outweighs_seen(self, small_stats):
        # df=0 gives the largest idf ln(N/1); df=2 is smaller.
        w = tfidf_weights("receptor zzzz", small_stats)
        assert w["zzzz"] > w["receptor"] > 0.0

    def test_all_common_terms_give_zero_vector(self):
        docs = [Document(f"d{i}", "", "same words here") for i in range(4)]
        stats = compute_stats(docs)
        w = tfidf_weights("same words", stats)
        # ln(4/5) < 0 floors to 0 for every term; nothing to normalize.
        assert all(v == 0.0 for v in w.values())

    def test_empty_text_rejected(self, small_stats):
        with pytest.raises(DataError):
            tfidf_weights("...", small_stats)

    def test_top_keywords_match_brute_force(self, small_docs, small_stats):
        for doc in small_docs:
            m = 3
            got = top_keywords(doc.text, small_stats, m)
            w = tfidf_weights(doc.text, small_stats)
            toks = tokenize(doc.text)
            first = {t: toks.index(t) for t in w}
            expect = sorted(w, key=lambda t: (-w[t], first[t]))[:m]
            assert got == expect


class TestSerialization:
    def test_corpus_round_trip(self, tmp_path, small_docs):
        p = str(tmp_path / "c.jsonl")
        save_corpus(p, small_docs)
        assert load_corpus(p) == small_docs

    def test_segments_round_trip(self, tmp_path, small_docs):
        p = str(tmp_path / "s.jsonl")
        segs = segment_corpus(small_docs, UnitKind.TWO_SENT)
        save_segments(p, segs)
        assert load_segments(p) == segs

    def test_corpus_duplicate_id_has_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        row = json.dumps({"id": "d1", "title": "t", "abstract": "a."})
        p.write_text(row + "\n" + row + "\n")
        with pytest.raises(DataError, match="2"):
            load_corpus(str(p))

    def test_corpus_bad_json_has_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "d1", "title": "t", "abstract": "a."}\nnot json\n')
        with pytest.raises(DataError, match="2"):
            load_corpus(str(p))

    def test_document_validation(self):
        with pytest.raises(DataError):
            Document("", "t", "a")
        with pytest.raises(DataError):
            Segment("s", "d", 0, UnitKind.TWO_SENT, "")
