import math
import random
from collections import Counter

import pytest

from bioir import DataError
from bioir import templates as templates_module
from bioir.corpus import Document, Segment, UnitKind, compute_stats, tokenize
from bioir.pretrain import TASK_TEMPQG, TrainingPair
from bioir.templates import (
    DenseTemplateScorer,
    EntityLexicon,
    EntitySpan,
    LexicalTemplateScorer,
    Template,
    build_tempqg_pairs,
    cluster_templates,
    extract_template,
    fill_template,
    load_pool,
    load_templates,
    pick_representative,
    save_pool,
    save_templates,
    select_templates,
    tag_entities,
    template_similarity,
)


def question_stats(texts):
    return compute_stats([Document(f"q{i}", "", t) for i, t in enumerate(texts)])


class TestLexicon:
    def test_load_and_normalize(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("# comment\nBorden Classification\tnoun\nregulate\tverb\n\n")
        lex = EntityLexicon.load(str(p))
        assert "borden classification" in lex
        assert not lex.is_verb("borden classification")
        assert lex.is_verb("regulate")
        assert lex.max_tokens == 2

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "lex.tsv"
        p.write_text("only-surface\n")
        with pytest.raises(DataError, match="1"):
            EntityLexicon.load(str(p))


class TestTagEntities:
    def test_lexicon_multi_token_longest_match(self):
        lex = EntityLexicon({"borden classification": False, "borden": False})
        spans = tag_entities("Borden classification is used here", lex)
        assert [(s.start, s.end, s.surface) for s in spans] == [(0, 2, "Borden classification")]
        assert spans[0].from_lexicon

    def test_capitalized_run_heuristic(self):
        lex = EntityLexicon({})
        spans = tag_entities("treated at Memorial Hospital yesterday", lex)
        assert [(s.surface, s.from_lexicon) for s in spans] == [("Memorial Hospital", False)]

    def test_single_capitalized_token_not_tagged(self):
        lex = EntityLexicon({})
        assert tag_entities("Is this treatment effective", lex) == []

    def test_digit_letter_heuristic(self):
        lex = EntityLexicon({})
        spans = tag_entities("Is BNN-20 involved?", lex)
        assert [(s.surface,) for s in spans] == [("BNN-20",)]

    def test_surface_keeps_inner_punct_drops_outer(self):
        lex = EntityLexicon({"lamp-2a": False})
        spans = tag_entities("the receptor (LAMP-2A), acts here", lex)
        assert [s.surface for s in spans] == ["LAMP-2A"]

    def test_overlap_prefers_longer_span(self):
        lex = EntityLexicon({"york": False})
        spans = tag_entities("visited New York City today", lex)
        # The 3-token capitalized run wins over the 1-token lexicon hit.
        assert [s.surface for s in spans] == ["New York City"]

    def test_spans_sorted_and_disjoint(self):
        lex = EntityLexicon({"p53": False, "mdm2": False})
        spans = tag_entities("Does p53 bind MDM2 in Homo Sapiens?", lex)
        assert [s.surface for s in spans] == ["p53", "MDM2", "Homo Sapiens"]
        for a, b in zip(spans, spans[1:]):
            assert a.end <= b.start


class TestExtractTemplate:
    def test_borden_worked_case(self):
        # Question corpus keeps "disease" frequent and the classification rare.
        stats = question_stats(
            ["Borden classification is used for which disease?"]
            + [f"What disease links to factor f{i}?" for i in range(6)]
        )
        lex = EntityLexicon({"borden classification": False, "disease": False})
        q = "Borden classification is used for which disease?"
        tpl = extract_template(q, tag_entities(q, lex), stats, df_threshold=5)
        assert tpl.pattern == "_ is used for which disease?"

    def test_verbs_never_blanked(self):
        stats = question_stats(["Does aspirin regulate clotting?"])
        lex = EntityLexicon({"aspirin": False, "regulate": True})
        q = "Does aspirin regulate clotting?"
        tpl = extract_template(q, tag_entities(q, lex), stats, df_threshold=5)
        assert tpl.pattern == "Does _ regulate clotting?"

    def test_outer_punctuation_kept_on_blank(self):
        stats = question_stats(["filler one", "filler two"])
        lex = EntityLexicon({"p53": False})
        q = "What binds (p53), then?"
        tpl = extract_template(q, tag_entities(q, lex), stats, df_threshold=5)
        assert tpl.pattern == "What binds (_), then?"

    def test_multi_token_span_collapses_to_one_blank(self):
        stats = question_stats(["filler text"])
        lex = EntityLexicon({"borden classification": False})
        q = "Is Borden classification useful?"
        tpl = extract_template(q, tag_entities(q, lex), stats, df_threshold=5)
        assert tpl.pattern == "Is _ useful?"

    def test_frequent_entity_survives(self):
        stats = question_stats([f"what disease is d{i}?" for i in range(6)])
        lex = EntityLexicon({"disease": False})
        q = "Which disease is that?"
        tpl = extract_template(q, tag_entities(q, lex), stats, df_threshold=5)
        assert tpl.pattern == q

    def test_idempotent(self):
        stats = question_stats(["background noise here"])
        lex = EntityLexicon({"bnn-20": False})
        q = "Is BNN-20 involved in Parkinson Disease?"
        first = extract_template(q, tag_entities(q, lex), stats, df_threshold=5)
        again = extract_template(
            first.pattern, tag_entities(first.pattern, lex), stats, df_threshold=5
        )
        assert again.pattern == first.pattern

    def test_source_question_id_recorded(self):
        stats = question_stats(["x y"])
        tpl = extract_template("Plain question?", [], stats, question_id="q9")
        assert tpl.source_question_ids == ["q9"]


class TestSimilarity:
    def test_hand_cosine_unit_counts(self):
        a, b = Template("alpha beta gamma"), Template("alpha beta delta")
        assert template_similarity(a, b) == pytest.approx(2 / 3, abs=1e-12)

    def test_hand_cosine_with_repeats(self):
        a, b = Template("go go stop"), Template("go stop")
        # dot = 2*1 + 1*1 = 3; |a| = sqrt(5), |b| = sqrt(2).
        assert template_similarity(a, b) == pytest.approx(3 / math.sqrt(10), abs=1e-12)

    def test_blanks_do_not_count(self):
        assert template_similarity(Template("_ is here"), Template("is here")) == pytest.approx(1.0)

    def test_identical_patterns_score_one(self):
        t = Template("What _ binds _?")
        assert template_similarity(t, t) == 1.0

    def test_disjoint_patterns_score_zero(self):
        assert template_similarity(Template("alpha beta"), Template("gamma delta")) == 0.0

    def test_blank_only_pattern_scores_zero(self):
        assert template_similarity(Template("_"), Template("_")) == 0.0

    def test_symmetry_and_range(self):
        rng = random.Random(2)
        vocab = ["a", "b", "c", "d", "_"]
        for _ in range(50):
            pa = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
            pb = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
            if not pa.strip() or not pb.strip():
                continue
            ta, tb = Template(pa), Template(pb)
            s = template_similarity(ta, tb)
            assert 0.0 <= s <= 1.0
            assert s == template_similarity(tb, ta)

    def test_idf_weighting_discounts_common_terms(self):
        # "what" is in every question; "receptor" is rare. With idf weighting
        # the shared rare term dominates over shared common terms.
        stats = question_stats(
            ["what receptor binds x", "what gene moves y", "what cell dies z",
             "what tissue grows w"]
        )
        shared_common = template_similarity(
            Template("what alpha"), Template("what beta"), stats=stats
        )
        shared_rare = template_similarity(
            Template("receptor alpha"), Template("receptor beta"), stats=stats
        )
        assert shared_common == 0.0  # idf("what") = ln(4/5) floors to 0
        assert shared_rare > shared_common
        # Unweighted bags cannot tell the two apart.
        assert template_similarity(
            Template("what alpha"), Template("what beta")
        ) == template_similarity(Template("receptor alpha"), Template("receptor beta"))


class TestClustering:
    def brute(self, templates, threshold):
        clusters = []
        for tpl in templates:
            placed = False
            for c in clusters:
                if all(template_similarity(tpl, m) >= threshold for m in c):
                    c.append(tpl)
                    placed = True
                    break
            if not placed:
                clusters.append([tpl])
        return [[t.pattern for t in c] for c in clusters]

    def test_matches_brute_force(self):
        rng = random.Random(9)
        vocab = ["is", "what", "which", "receptor", "gene", "disease", "level", "_"]
        for trial in range(10):
            templates = [
                Template(" ".join(rng.choice(vocab) for _ in range(rng.randint(2, 6))))
                for _ in range(rng.randint(3, 12))
            ]
            got = cluster_templates(templates, threshold=0.75)
            assert [[t.pattern for t in c] for c in got] == self.brute(templates, 0.75)

    def test_cluster_ids_assigned(self):
        templates = [Template("a b c"), Template("a b c"), Template("x y z")]
        clusters = cluster_templates(templates, threshold=0.75)
        assert [t.cluster_id for t in clusters[0]] == [0, 0]
        assert [t.cluster_id for t in clusters[1]] == [1]

    def test_identical_always_cluster(self):
        templates = [Template("same thing") for _ in range(5)]
        assert len(cluster_templates(templates, threshold=1.0)) == 1

    def test_threshold_one_separates_near_misses(self):
        templates = [Template("a b c"), Template("a b d")]
        assert len(cluster_templates(templates, threshold=1.0)) == 2


class TestRepresentative:
    def make(self, lengths):
        return [Template(" ".join(f"w{i}" for i in range(n))) for n in lengths]

    def test_smallest(self):
        cluster = self.make([4, 7, 9])
        assert pick_representative(cluster).token_length == 4

    def test_second_smallest(self):
        cluster = self.make([4, 7, 9])
        assert pick_representative(cluster, second_smallest=True).token_length == 7

    def test_second_on_singleton_falls_back(self):
        cluster = self.make([3])
        assert pick_representative(cluster, second_smallest=True).token_length == 3

    def test_tie_breaks_lexicographically(self):
        a, b = Template("b b"), Template("a a")
        assert pick_representative([a, b]).pattern == "a a"


class TestSelection:
    def test_lexical_engine_prefers_overlapping_template(self):
        pool = [
            Template("which receptor is targeted by _"),
            Template("what gene level changes with _"),
            Template("where does _ accumulate"),
        ]
        got = select_templates(
            "The receptor binds its target in the membrane.",
            pool,
            LexicalTemplateScorer(),
            n=2,
        )
        assert got[0].pattern == "which receptor is targeted by _"
        assert len(got) == 2

    def test_duplicates_collapse(self):
        pool = [Template("same _ here"), Template("same _ here"), Template("other _ there")]
        got = select_templates("same context here", pool, LexicalTemplateScorer(), n=10)
        assert len(got) == 2

    def test_n_bounds_result(self):
        pool = [Template(f"unique words w{i}") for i in range(8)]
        got = select_templates("unique words", pool, LexicalTemplateScorer(), n=3)
        assert len(got) == 3


class TestFill:
    def test_lamp_2a_worked_case(self):
        context = (
            "The lysosomal-membrane protein type 2A (LAMP-2A) acts as the receptor "
            "for the substrates of chaperone-mediated autophagy (CMA), which should "
            "undergo unfolding before crossing the lysosomal membrane and reaching "
            "the lumen for degradation."
        )
        lex = EntityLexicon({"lamp-2a": False})
        tpl = Template("which receptor is targeted by _")
        assert fill_template(tpl, context, lex) == "Which receptor is targeted by LAMP-2A?"

    def test_none_when_not_enough_entities(self):
        lex = EntityLexicon({})
        tpl = Template("does _ affect _?")
        assert fill_template(tpl, "plain words only here", lex) is None

    def test_two_blanks_two_entities_in_rank_order(self):
        lex = EntityLexicon({"p53": False, "mdm2": False})
        tpl = Template("does _ bind _?")
        # Both from lexicon, same span length: earlier occurrence ranks first.
        got = fill_template(tpl, "we saw p53 then mdm2 appear", lex)
        assert got == "Does p53 bind mdm2?"

    def test_lexicon_outranks_heuristic(self):
        lex = EntityLexicon({"aspirin": False})
        tpl = Template("is _ effective?")
        got = fill_template(tpl, "After The Trial we tried aspirin", lex)
        assert got == "Is aspirin effective?"

    def test_question_mark_appended_once(self):
        lex = EntityLexicon({"x1": False})
        assert fill_template(Template("name _?"), "token x1 here", lex) == "Name x1?"

    def test_punctuation_around_blank_kept(self):
        lex = EntityLexicon({"x1": False})
        got = fill_template(Template("binds (_), right?"), "token x1 here", lex)
        assert got == "Binds (x1), right?"


class TestTempqgPairs:
    def segs(self):
        return [
            Segment("s1#two_sent#0", "d1", 0, UnitKind.TWO_SENT,
                    "The receptor binds p53 tightly. It acts downstream."),
            Segment("s2#two_sent#0", "d2", 0, UnitKind.TWO_SENT,
                    "No entities appear in this text at all."),
        ]

    def test_pairs_match_manual_enumeration(self):
        lex = EntityLexicon({"p53": False})
        pool = [Template("what binds _"), Template("is _ downstream")]
        pairs = build_tempqg_pairs(self.segs(), pool, LexicalTemplateScorer(), lex, n_templates=2)
        # s1 fills both templates with p53; s2 has no entities so none fill.
        texts = {(p.query_text, p.source_doc_id) for p in pairs}
        assert texts == {
            ("What binds p53?", "d1"),
            ("Is p53 downstream?", "d1"),
        }
        assert all(p.task == TASK_TEMPQG for p in pairs)
        assert all(p.positive_text == self.segs()[0].text for p in pairs)

    def test_duplicate_questions_dropped(self):
        lex = EntityLexicon({"p53": False})
        pool = [Template("what binds _"), Template("what binds _!")]
        pairs = build_tempqg_pairs(self.segs(), pool, LexicalTemplateScorer(), lex, n_templates=2)
        assert len({p.query_text for p in pairs}) == len(pairs)


class TestTemplateIo:
    def test_templates_round_trip(self, tmp_path):
        templates = [Template("a _ b", source_question_ids=["q1", "q2"]), Template("c d")]
        p = str(tmp_path / "t.jsonl")
        save_templates(p, templates)
        back = load_templates(p)
        assert [(t.pattern, t.source_question_ids) for t in back] == [
            ("a _ b", ["q1", "q2"]),
            ("c d", []),
        ]

    def test_pool_round_trip(self, tmp_path):
        pool = [Template("a _", cluster_id=0), Template("b _", cluster_id=1)]
        p = str(tmp_path / "pool.jsonl")
        save_pool(p, pool)
        back = load_pool(p)
        assert [(t.pattern, t.cluster_id) for t in back] == [("a _", 0), ("b _", 1)]


# ---------------------------------------------------------------------------
# Differential check of the precomputing implementation against a reference
# that recomputes per call: bags per comparison, context entities per fill.

def _ref_pattern_bag(pattern, stats):
    counts = Counter(tokenize(pattern))
    if stats is None:
        return {t: float(c) for t, c in counts.items()}
    n = stats.num_docs
    return {t: c * max(0.0, math.log(n / (1 + stats.df(t)))) for t, c in counts.items()}


def ref_template_similarity(a, b, stats=None):
    va = _ref_pattern_bag(a.pattern, stats)
    vb = _ref_pattern_bag(b.pattern, stats)
    dot = sum(va[t] * vb.get(t, 0.0) for t in va)
    denom = math.sqrt(sum(v * v for v in va.values()) * sum(v * v for v in vb.values()))
    if denom == 0.0:
        return 0.0
    return min(1.0, max(0.0, dot / denom))


def ref_cluster_ids(templates, threshold, stats):
    clusters = []
    ids = []
    for tpl in templates:
        for cid, members in enumerate(clusters):
            if all(ref_template_similarity(tpl, m, stats) >= threshold for m in members):
                members.append(tpl)
                ids.append(cid)
                break
        else:
            ids.append(len(clusters))
            clusters.append([tpl])
    return ids


def ref_fill_template(template, context, lexicon):
    entities = templates_module._ranked_context_entities(context, lexicon)
    toks = template.pattern.split()
    if sum(1 for t in toks if templates_module._is_blank(t)) > len(entities):
        return None
    out = []
    next_entity = 0
    for tok in toks:
        if templates_module._is_blank(tok):
            cut = tok.index("_")
            out.append(f"{tok[:cut]}{entities[next_entity].surface}{tok[cut + 1:]}")
            next_entity += 1
        else:
            out.append(tok)
    question = " ".join(out).strip()
    question = question[:1].upper() + question[1:]
    if not question.endswith("?"):
        question += "?"
    return question


def ref_build_tempqg_pairs(segments, pool, lexicon, n_templates):
    def rebuilding_scorer(context, templates):  # a fresh BM25 index per call
        return LexicalTemplateScorer()(context, templates)

    pairs = []
    for seg in segments:
        questions = []
        for tpl in select_templates(seg.text, pool, rebuilding_scorer, n_templates):
            question = ref_fill_template(tpl, seg.text, lexicon)
            if question is not None:
                questions.append(question)
        pairs.extend(TrainingPair(q, seg.text, TASK_TEMPQG, seg.doc_id)
                     for q in dict.fromkeys(questions))
    return pairs


_WORDS = ["what", "which", "is", "does", "the", "of", "in", "receptor", "gene", "level",
          "disease", "binds", "regulates", "cell", "protein", "expression", "role", "treat"]
_BLANKS = ["_", "_?", "(_)", "_,"]


def distinct_templates(rng, n):
    """n templates with pairwise-distinct patterns over a small shared vocabulary."""
    patterns = {}
    while len(patterns) < n:
        toks = [rng.choice(_WORDS) for _ in range(rng.randint(2, 8))]
        for _ in range(rng.randint(0, 2)):
            toks.insert(rng.randint(0, len(toks)), rng.choice(_BLANKS))
        patterns.setdefault(" ".join(toks), None)
    return [Template(p) for p in patterns]


def random_contexts(rng, n, lexicon_surfaces):
    fillers = _WORDS + ["Heat", "Shock", "Factor", "IL6", "p53", "CD4", "tightly,", "(BRCA1)"]
    segs = []
    for i in range(n):
        toks = [rng.choice(fillers + lexicon_surfaces) for _ in range(rng.randint(1, 14))]
        segs.append(Segment(f"s{i}#two_sent#0", f"d{i}", 0, UnitKind.TWO_SENT, " ".join(toks) + "."))
    return segs


class TestPrecomputeMatchesReference:
    @pytest.fixture(params=[False, True], ids=["counts", "idf"])
    def case(self, request):
        rng = random.Random(2024 + request.param)
        tpls = distinct_templates(rng, 320)
        stats = None
        if request.param:
            texts = [" ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 10)))
                     for _ in range(60)]
            stats = question_stats(texts)
        return tpls, stats

    def test_every_pairwise_similarity_equal(self, case):
        tpls, stats = case
        bags = [templates_module._weighted_bag(t.pattern, stats) for t in tpls]
        for i, a in enumerate(tpls):
            for j, b in enumerate(tpls):
                want = ref_template_similarity(a, b, stats)
                assert template_similarity(a, b, stats, bags=(bags[i], bags[j])) == want
                if j % 7 == 0:
                    assert template_similarity(a, b, stats) == want

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.75])
    def test_cluster_assignments_equal(self, case, threshold):
        tpls, stats = case
        want = ref_cluster_ids(tpls, threshold, stats)
        assert len(set(want)) > 1
        clusters = cluster_templates(tpls, threshold=threshold, stats=stats)
        assert [t.cluster_id for t in tpls] == want
        assert [[t.cluster_id for t in c] for c in clusters] == [
            [cid] * want.count(cid) for cid in range(len(clusters))
        ]

    def test_pattern_bag_built_once_per_template(self, case, monkeypatch):
        tpls, stats = case
        built = []
        original = templates_module._pattern_bag

        def counting(pattern, stats):
            built.append(pattern)
            return original(pattern, stats)

        monkeypatch.setattr(templates_module, "_pattern_bag", counting)
        cluster_templates(tpls, threshold=0.75, stats=stats)
        assert sorted(built) == sorted(t.pattern for t in tpls)

    def test_tempqg_pairs_equal(self):
        rng = random.Random(77)
        surfaces = ["p53", "heat shock factor", "binds", "tumor necrosis", "IL6"]
        lex = EntityLexicon({"p53": False, "heat shock factor": False, "binds": True,
                             "tumor necrosis": False})
        pool = [t for t in distinct_templates(rng, 300) if t.blank_count][:40]
        segs = random_contexts(rng, 300, surfaces)
        want = ref_build_tempqg_pairs(segs, pool, lex, 5)
        assert len(want) > 100
        assert build_tempqg_pairs(segs, pool, LexicalTemplateScorer(), lex, n_templates=5) == want


class TestScorerCache:
    POOL_A = ["what binds _", "is _ downstream", "which gene regulates _?", "_"]
    POOL_B = ["what role does _ play", "_ expression in the cell"]
    CONTEXTS = ["The receptor binds p53 tightly downstream.",
                "Gene expression of IL6 plays a role in the cell."]

    def check(self, scorer, fresh_scorer, counter):
        """Scores per call equal a fresh scorer's; returns the rebuild count per call."""
        pool_a = [Template(p) for p in self.POOL_A]
        pool_b = [Template(p) for p in self.POOL_B]
        rebuilt = []

        def call(context, pool):
            before = len(counter)
            got = scorer(context, pool)
            rebuilt.append(len(counter) - before)
            assert got == fresh_scorer()(context, pool)

        call(self.CONTEXTS[0], pool_a)
        call(self.CONTEXTS[1], pool_a)
        call(self.CONTEXTS[0], pool_b)
        call(self.CONTEXTS[1], pool_a)
        pool_a[1] = Template("what gene is _")
        call(self.CONTEXTS[0], pool_a)
        pool_a[0].pattern = "the cell binds _"
        call(self.CONTEXTS[0], pool_a)
        call(self.CONTEXTS[1], pool_a)
        return rebuilt

    def test_lexical_builds_one_index_per_pool_change(self, monkeypatch):
        built = []
        original = templates_module.build_index

        def counting(segments, *args, **kwargs):
            built.append(None)
            return original(segments, *args, **kwargs)

        monkeypatch.setattr(templates_module, "build_index", counting)
        rebuilt = self.check(LexicalTemplateScorer(), LexicalTemplateScorer, built)
        assert rebuilt == [1, 0, 1, 1, 1, 1, 0]

    def test_dense_encodes_once_per_pool_change(self, monkeypatch):
        import numpy as np

        from bioir import polydpr
        from bioir.embedding import HashingEmbedder

        encoded = []
        original = polydpr.encode_context

        def counting(token_vectors, codes):
            encoded.append(None)
            return original(token_vectors, codes)

        monkeypatch.setattr(polydpr, "encode_context", counting)
        provider = HashingEmbedder(dim=16, seed=3, n_hash=2)
        rng = np.random.default_rng(5)
        codes = polydpr.PolyCodes(rng.normal(size=(3, 16)))
        projection = rng.normal(size=(16, 16))

        def fresh():
            return DenseTemplateScorer(provider, codes, projection)

        rebuilt = self.check(fresh(), fresh, encoded)
        # Pool A's blank-only pattern has no tokens: it scores 0 and is not encoded.
        a, b = len(self.POOL_A) - 1, len(self.POOL_B)
        assert rebuilt == [a, 0, b, a, a, a, 0]
