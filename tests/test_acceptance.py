"""Acceptance suite: ten end-to-end checks against independent oracles.

Each test prints exactly one "criterion NN [...]: PASS/FAIL" line straight to
the terminal (capture disabled), then asserts, so a failing criterion still
announces itself. Oracles here are written from the stated contracts, not by
calling back into the code under test: the dense search check re-scores with
an explicit double loop, the BM25 check recomputes scores from raw counts,
and the evaluation check re-implements AP and recall from scratch.

The trained-pipeline run is expensive (tens of seconds) and shared by the
two criteria that need it via a session fixture.
"""

import math
import os
import time

import numpy as np
import pytest

from bioir.corpus import (
    Document,
    Segment,
    UnitKind,
    compute_stats,
    load_corpus,
    segment_corpus,
    split_sentences,
    tokenize,
)
from bioir.embedding import HashingEmbedder
from bioir.fixture import make_synthetic_fixture
from bioir.fusion_eval import (
    RunList,
    aggregate_documents,
    average_precision,
    evaluate_run,
    hybrid_fuse,
    read_qrels,
    recall_at,
)
from bioir.lexical import bm25_score, build_index, search_bm25
from bioir.pipeline import (
    PipelineConfig,
    build_pool,
    extract_templates_from_questions,
    load_queries,
    load_questions,
    run_pipeline,
)
from bioir.polydpr import (
    PolyCodes,
    RetrieverModel,
    build_dense_index,
    encode_context,
    grad_check,
    infer_similarity,
    search_dense,
    train_similarity,
)
from bioir.pretrain import (
    TASK_SUPERVISED,
    TrainingPair,
    build_etm_pairs,
    build_ict_pairs,
    build_rsm_pairs,
    ict_sentence_index,
)
from bioir.templates import (
    EntityLexicon,
    LexicalTemplateScorer,
    Template,
    build_tempqg_pairs,
    extract_template,
    fill_template,
    tag_entities,
)


def announce(capfd, number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capfd.disabled():
        print(f"criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}{suffix}", flush=True)


def random_text(rng, vocab, lo, hi):
    n = int(rng.integers(lo, hi + 1))
    return " ".join(vocab[int(rng.integers(0, len(vocab)))] for _ in range(n))


def make_segments(rng, n, vocab, lo=8, hi=20):
    return [
        Segment(f"s{i:04d}#two_sent#0", f"s{i:04d}", 0, UnitKind.TWO_SENT,
                random_text(rng, vocab, lo, hi))
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Shared fixture-corpus runs for the pipeline criteria.

@pytest.fixture(scope="session")
def bundled(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    fx = make_synthetic_fixture(str(root / "fx"), seed=1)
    return root, fx


def dense_config(fx, workdir, **kw):
    defaults = dict(
        corpus=fx.corpus,
        queries=fx.queries,
        qrels=fx.qrels,
        train_questions=fx.train_questions,
        lexicon=fx.lexicon,
        workdir=str(workdir),
        mode="dense",
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="session")
def trained(bundled):
    root, fx = bundled
    config = dense_config(fx, root / "w_trained")
    start = time.perf_counter()
    report, _ = run_pipeline(config)
    elapsed = time.perf_counter() - start
    return root, fx, config, report, elapsed


# ---------------------------------------------------------------------------

def test_01_mips_oracle_equivalence(capfd):
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    vocab = [f"w{i}" for i in range(400)]
    segments = make_segments(rng, 1000, vocab)
    provider = HashingEmbedder(dim=64, seed=13, n_hash=8)
    model = RetrieverModel.initialize(6, 64, seed=5)
    index = build_dense_index(segments, provider, model.codes)
    wrapped = model.query_provider(provider)

    failures = []
    for q in range(5):
        query = random_text(rng, vocab, 3, 8)
        got = search_dense(index, query, wrapped, top_k=100)
        v_q = wrapped.query_vector(query)
        scored = []
        for ref, vectors in zip(index.segment_refs, index.entries):
            best = None
            for row in vectors:
                s = float(np.dot(row, v_q))
                if best is None or s > best:
                    best = s
            scored.append((ref, best))
        scored.sort(key=lambda h: (-h[1], h[0]))
        if got != scored[:100]:
            failures.append(f"query {q} diverged from the double-loop scan")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s (bound 5s)")
    ok = not failures
    announce(capfd, 1, "dense search equals naive double-loop scan", ok,
             f"1000 segments, 5 queries, {elapsed:.2f}s")
    assert ok, failures


def test_02_gradient_fidelity(capfd):
    rng = np.random.default_rng(123)
    vocab = [f"tok{i}" for i in range(50)]
    provider = HashingEmbedder(dim=16, seed=13, n_hash=8)
    worst = 0.0
    for _ in range(20):
        model = RetrieverModel.initialize(6, 16, int(rng.integers(0, 2**31)))
        batch = [
            TrainingPair(random_text(rng, vocab, 3, 6), random_text(rng, vocab, 5, 12),
                         TASK_SUPERVISED, f"g{i}")
            for i in range(4)
        ]
        errors = grad_check(model, provider, batch, epsilon=1e-5)
        worst = max(worst, *errors.values())
    corrupted = grad_check(
        model, provider, batch, epsilon=1e-5, corrupt=("codes", 0, 0.1)
    )
    flagged = max(corrupted.values()) >= 1e-4
    ok = worst < 1e-4 and flagged
    announce(capfd, 2, "analytic gradients match central differences", ok,
             f"max rel error {worst:.3e}, corrupted control flagged: {flagged}")
    assert worst < 1e-4
    assert flagged


def test_03_single_code_collapse(capfd):
    rng = np.random.default_rng(7)
    exact = 0
    for _ in range(500):
        d = int(rng.integers(4, 33))
        n_tok = int(rng.integers(1, 12))
        tokens = rng.normal(size=(n_tok, d))
        codes = PolyCodes(rng.normal(size=(1, d)))
        context = encode_context(tokens, codes)
        v_q = rng.normal(size=d)
        plain = float(np.dot(context[0], v_q))
        if train_similarity(v_q, context) == plain and infer_similarity(v_q, context) == plain:
            exact += 1
    ok = exact == 500
    announce(capfd, 3, "single-code scoring is a plain inner product", ok,
             f"{exact}/500 bit-for-bit")
    assert ok


def test_04_bm25_hand_oracle(capfd):
    failures = []
    k1, b = 0.9, 0.4
    segments = [
        Segment("s1", "s1", 0, UnitKind.TWO_SENT, "gene therapy gene"),
        Segment("s2", "s2", 0, UnitKind.TWO_SENT, "gene expression"),
        Segment("s3", "s3", 0, UnitKind.TWO_SENT, "protein folding model"),
    ]
    index = build_index(segments, k1=k1, b=b)
    # Hand numbers: N=3, lengths 3/2/3, avgdl 8/3, df(gene)=2, df(therapy)=1.
    avg = 8.0 / 3.0
    idf_gene = math.log(1.0 + (3.0 - 2.0 + 0.5) / (2.0 + 0.5))
    idf_therapy = math.log(1.0 + (3.0 - 1.0 + 0.5) / (1.0 + 0.5))
    expected = {
        ("s1", ("gene",)): idf_gene * 2 * 1.9 / (2 + k1 * (1 - b + b * 3 / avg)),
        ("s2", ("gene",)): idf_gene * 1 * 1.9 / (1 + k1 * (1 - b + b * 2 / avg)),
        ("s1", ("therapy",)): idf_therapy * 1.9 / (1 + k1 * (1 - b + b * 3 / avg)),
        ("s3", ("gene", "therapy")): 0.0,
    }
    expected[("s1", ("gene", "therapy"))] = (
        expected[("s1", ("gene",))] + expected[("s1", ("therapy",))]
    )
    for (ref, terms), want in expected.items():
        got = bm25_score(index, list(terms), ref)
        if abs(got - want) > 1e-9:
            failures.append(f"{ref}/{terms}: {got} != {want}")

    # Independent recomputation from raw counts on a 1k-segment corpus, then
    # ranking equality against per-segment scoring.
    rng = np.random.default_rng(97)
    vocab = [f"w{i}" for i in range(150)]
    big = make_segments(rng, 1000, vocab)
    big_index = build_index(big, k1=k1, b=b)
    token_lists = {s.segment_id: tokenize(s.text) for s in big}
    token_sets = {ref: set(toks) for ref, toks in token_lists.items()}
    n = len(big)
    avg_big = sum(len(t) for t in token_lists.values()) / n
    sample_refs = [big[int(rng.integers(0, n))].segment_id for _ in range(200)]
    for ref in sample_refs:
        terms = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(3)]
        want = 0.0
        for term in sorted(set(terms)):
            tf = token_lists[ref].count(term)
            if tf == 0:
                continue
            df = sum(1 for s in token_sets.values() if term in s)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            length = len(token_lists[ref])
            want += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * length / avg_big))
        got = bm25_score(big_index, terms, ref)
        if abs(got - want) > 1e-9:
            failures.append(f"raw-count mismatch at {ref}: {got} != {want}")

    for q in range(10):
        query = random_text(rng, vocab, 2, 5)
        got = search_bm25(big_index, query, top_k=1000)
        terms = list(set(tokenize(query)))
        exhaustive = [
            (s.segment_id, bm25_score(big_index, terms, s.segment_id)) for s in big
        ]
        exhaustive = [(ref, sc) for ref, sc in exhaustive if sc > 0.0]
        exhaustive.sort(key=lambda h: (-h[1], h[0]))
        if got != exhaustive:
            failures.append(f"ranking diverged for query {q}")

    ok = not failures
    announce(capfd, 4, "lexical scores match the pinned formula", ok,
             "hand oracle to 1e-9; 1k-segment ranking exact")
    assert ok, failures


def brute_ap(ranked, relevant, cutoff):
    hits = 0
    total = 0.0
    for i, ref in enumerate(ranked[:cutoff], start=1):
        if ref in relevant:
            hits += 1
            total += hits / i
    denom = min(len(relevant), cutoff)
    return total / denom if denom else 0.0


def brute_recall(ranked, relevant, cutoff):
    if not relevant:
        return 0.0
    return len(set(ranked[:cutoff]) & relevant) / len(relevant)


def test_05_eval_oracle(capfd):
    failures = []
    worked = average_precision(["d1", "d3", "d2"], {"d1", "d2"}, cutoff=10)
    if abs(worked - 5.0 / 6.0) > 1e-12:
        failures.append(f"worked example gave {worked}")

    rng = np.random.default_rng(55)
    doc_pool = [f"d{i}" for i in range(30)]
    for fixture in range(20):
        cutoff = int(rng.integers(3, 15))
        qrels = {}
        runs = {}
        for qn in range(int(rng.integers(2, 6))):
            qid = f"q{fixture}_{qn}"
            relevant = set(
                rng.choice(doc_pool, size=int(rng.integers(1, 6)), replace=False)
            )
            ranked = list(rng.permutation(doc_pool)[: int(rng.integers(5, 25))])
            qrels[qid] = relevant
            runs[qid] = RunList(qid, [(ref, float(30 - i)) for i, ref in enumerate(ranked)],
                                method="m")
            ap = average_precision(ranked, relevant, cutoff)
            rec = recall_at(ranked, relevant, cutoff)
            if abs(ap - brute_ap(ranked, relevant, cutoff)) > 1e-12:
                failures.append(f"AP mismatch at {qid}")
            if abs(rec - brute_recall(ranked, relevant, cutoff)) > 1e-12:
                failures.append(f"recall mismatch at {qid}")
        report = evaluate_run(runs, qrels, cutoff=cutoff)
        want_map = sum(
            brute_ap([r for r, _ in runs[qid].hits], qrels[qid], cutoff) for qid in qrels
        ) / len(qrels)
        if abs(report.map - want_map) > 1e-12:
            failures.append(f"MAP mismatch on fixture {fixture}")

    ok = not failures
    announce(capfd, 5, "AP and recall match a brute-force scorer", ok,
             "20 fixtures to 1e-12, worked example included")
    assert ok, failures


def test_06_hybrid_contracts(capfd):
    failures = []
    bm25 = RunList("q1", [("dA", 9.0), ("dB", 4.0), ("dC", 1.0)], method="bm25")
    empty = RunList("q1", [], method="dense")
    fused = hybrid_fuse(bm25, empty)
    if [ref for ref, _ in fused.hits] != ["dA", "dB", "dC"]:
        failures.append("empty dense run changed the lexical order")

    dense = RunList("q1", [("dA", 0.7), ("dD", 0.2)], method="dense")
    top = hybrid_fuse(bm25, dense).hits[0]
    if top[0] != "dA" or top[1] != 2.0:
        failures.append(f"top-of-both scored {top}, expected ('dA', 2.0)")

    rng = np.random.default_rng(11)
    docs = [f"d{i}" for i in range(12)]
    for trial in range(10):
        n1, n2 = int(rng.integers(3, 10)), int(rng.integers(3, 10))
        left = [(docs[i], float(rng.normal())) for i in rng.permutation(12)[:n1]]
        right = [(docs[i], float(rng.normal())) for i in rng.permutation(12)[:n2]]
        base = hybrid_fuse(RunList("q", left, method="bm25"),
                           RunList("q", right, method="dense"))
        a1, b1 = float(rng.uniform(0.1, 5.0)), float(rng.normal())
        a2, b2 = float(rng.uniform(0.1, 5.0)), float(rng.normal())
        scaled = hybrid_fuse(
            RunList("q", [(r, a1 * s + b1) for r, s in left], method="bm25"),
            RunList("q", [(r, a2 * s + b2) for r, s in right], method="dense"),
        )
        if [r for r, _ in base.hits] != [r for r, _ in scaled.hits]:
            failures.append(f"affine rescaling changed the order on trial {trial}")

    ok = not failures
    announce(capfd, 6, "fusion ordering and scale contracts hold", ok)
    assert ok, failures


def test_07_end_to_end_retrieval(capfd, bundled, trained):
    root, fx = bundled
    _, _, config, report, elapsed = trained

    untrained_config = dense_config(
        fx, root / "w_untrained", pretrain_task="none", finetune_task="none",
        train_questions="", lexicon="",
    )
    untrained, _ = run_pipeline(untrained_config)

    repeat_config = dense_config(fx, root / "w_repeat")
    repeat, _ = run_pipeline(repeat_config)
    same_map = repeat.map == report.map
    first = open(os.path.join(config.workdir, "run_dense_docs.trec"), "rb").read()
    second = open(os.path.join(repeat_config.workdir, "run_dense_docs.trec"), "rb").read()
    same_bytes = first == second

    failures = []
    if report.map < 0.80:
        failures.append(f"MAP {report.map:.4f} < 0.80")
    if report.map - untrained.map < 0.30:
        failures.append(
            f"gain over untrained {report.map - untrained.map:.4f} < 0.30"
        )
    if elapsed >= 120.0:
        failures.append(f"training run took {elapsed:.1f}s (bound 120s)")
    if not (same_map and same_bytes):
        failures.append("repeat run with the same seed diverged")

    ok = not failures
    announce(
        capfd, 7, "trained pipeline beats the bar on the bundled corpus", ok,
        f"MAP@10 {report.map:.4f} vs untrained {untrained.map:.4f}, {elapsed:.1f}s",
    )
    assert ok, failures


def test_08_granularity_trend(capfd, bundled, trained):
    _, fx = bundled
    _, _, config, report, _ = trained
    two_sent_map = report.map

    model = RetrieverModel.load(os.path.join(config.workdir, "model.pdmo"))
    provider = HashingEmbedder(dim=config.dim, seed=config.embed_seed, n_hash=config.n_hash)
    wrapped = model.query_provider(provider)
    docs = load_corpus(fx.corpus)
    segments = segment_corpus(docs, UnitKind.FULL_DOC)
    index = build_dense_index(segments, provider, model.codes)
    seg_to_doc = {s.segment_id: s.doc_id for s in segments}
    runs = {}
    for qid, text in load_queries(fx.queries):
        hits = search_dense(index, text, wrapped, top_k=config.top_k)
        runs[qid] = aggregate_documents(
            RunList(qid, hits, method="dense"), seg_to_doc, top_n=config.top_docs
        )
    full_doc_map = evaluate_run(runs, read_qrels(fx.qrels), cutoff=config.cutoff).map

    ok = two_sent_map >= full_doc_map
    announce(
        capfd, 8, "two-sentence indexing beats whole-document indexing", ok,
        f"two-sentence MAP {two_sent_map:.4f} vs full-document {full_doc_map:.4f}",
    )
    assert ok


def test_09_generator_invariants(capfd, tmp_path):
    failures = []
    fx = make_synthetic_fixture(str(tmp_path / "g"), seed=3, n_docs=100)
    docs = load_corpus(fx.corpus)
    by_id = {d.doc_id: d for d in docs}
    stats = compute_stats(docs)

    etm, _ = build_etm_pairs(docs, stats)
    for pair in etm:
        doc = by_id[pair.source_doc_id]
        if not pair.query_text.startswith(doc.title):
            failures.append(f"title-expansion query lost its title prefix ({doc.doc_id})")
        if pair.positive_text != doc.abstract:
            failures.append(f"title-expansion positive is not the abstract ({doc.doc_id})")

    rsm, _ = build_rsm_pairs(docs, stats)
    sentences = {d.doc_id: split_sentences(d.abstract) for d in docs}
    for pair in rsm:
        query_tokens = pair.query_text.split()
        subseq = False
        for sent in sentences[pair.source_doc_id]:
            it = iter(tokenize(sent))
            if all(t in it for t in query_tokens):
                subseq = True
                break
        if not subseq:
            failures.append(f"reduced sentence is not a subsequence ({pair.source_doc_id})")
        if not pair.positive_text.startswith(by_id[pair.source_doc_id].title):
            failures.append(f"reduced-sentence positive lost its title ({pair.source_doc_id})")

    ict, _ = build_ict_pairs(docs, seed=7)
    for pair in ict:
        sents = sentences[pair.source_doc_id]
        idx = ict_sentence_index(7, pair.source_doc_id, len(sents))
        if pair.query_text != sents[idx]:
            failures.append(f"held-out sentence is not the keyed draw ({pair.source_doc_id})")
        rest = [s for i, s in enumerate(sents) if i != idx]
        if split_sentences(pair.positive_text) != rest:
            failures.append(f"context does not partition the abstract ({pair.source_doc_id})")
    if build_ict_pairs(docs, seed=7)[0] != ict:
        failures.append("held-out-sentence pairs changed under the same seed")
    if build_ict_pairs(docs, seed=8)[0] == ict:
        failures.append("held-out-sentence pairs ignored the seed")

    questions = load_questions(fx.train_questions)
    lexicon = EntityLexicon.load(fx.lexicon)
    templates = extract_templates_from_questions(questions, lexicon, 5)
    question_stats = compute_stats(
        [Document(qid, "", text) for qid, text in questions]
    )
    for tpl in templates:
        spans = tag_entities(tpl.pattern, lexicon)
        again = extract_template(tpl.pattern, spans, question_stats, 5)
        if again.pattern != tpl.pattern:
            failures.append(f"re-extraction changed '{tpl.pattern}' to '{again.pattern}'")

    pool = build_pool(templates, 0.75, False)
    segments = segment_corpus(docs, UnitKind.TWO_SENT)
    pairs = build_tempqg_pairs(segments, pool, LexicalTemplateScorer(), lexicon)
    if not pairs:
        failures.append("template generation produced no pairs")
    seen = set()
    for pair in pairs:
        key = (pair.query_text, pair.positive_text)
        if key in seen:
            failures.append(f"duplicate generated question: {pair.query_text!r}")
        seen.add(key)
    if build_tempqg_pairs(segments, pool, LexicalTemplateScorer(), lexicon) != pairs:
        failures.append("template generation is not deterministic")

    ok = not failures
    announce(capfd, 9, "pair generators keep their structural invariants", ok,
             f"100 docs; {len(etm)}+{len(rsm)}+{len(ict)}+{len(pairs)} pairs checked")
    assert ok, failures


def test_10_template_spot_checks(capfd):
    failures = []
    corpus = (
        ["Borden classification is used for which disease?"]
        + [f"What disease links to factor f{i}?" for i in range(6)]
    )
    stats = compute_stats([Document(f"q{i}", "", t) for i, t in enumerate(corpus)])
    lexicon = EntityLexicon({"borden classification": False, "disease": False})
    question = "Borden classification is used for which disease?"
    tpl = extract_template(question, tag_entities(question, lexicon), stats, df_threshold=5)
    if tpl.pattern != "_ is used for which disease?":
        failures.append(f"extraction gave {tpl.pattern!r}")

    context = (
        "The lysosomal-membrane protein type 2A (LAMP-2A) acts as the receptor "
        "for the substrates of chaperone-mediated autophagy (CMA), which should "
        "undergo unfolding before crossing the lysosomal membrane and reaching "
        "the lumen for degradation."
    )
    filled = fill_template(
        Template("which receptor is targeted by _"), context, EntityLexicon({"lamp-2a": False})
    )
    if filled != "Which receptor is targeted by LAMP-2A?":
        failures.append(f"fill gave {filled!r}")

    ok = not failures
    announce(capfd, 10, "template extraction and filling reproduce the worked cases", ok)
    assert ok, failures
