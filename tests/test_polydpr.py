import math
import os

import numpy as np
import pytest

from bioir import ConfigError, DataError, polydpr
from bioir.corpus import Segment, UnitKind
from bioir.embedding import HashingEmbedder, VectorFileProvider, dump_vectors
from bioir.polydpr import (
    DEFAULT_K,
    DenseIndex,
    PolyCodes,
    RetrieverModel,
    TrainConfig,
    build_dense_index,
    encode_context,
    grad_check,
    infer_similarity,
    nll_loss,
    search_dense,
    train,
    train_similarity,
)
from bioir.pretrain import TASK_SUPERVISED, TrainingPair


def seg(ref, text):
    return Segment(ref, ref.split("#")[0], 0, UnitKind.FULL_DOC, text)


class TestEncodeContext:
    def test_hand_softmax_attention(self):
        # One code m = (ln 3, 0) over two one-hot token vectors:
        # attention = softmax(ln 3, 0) = (0.75, 0.25).
        H = np.array([[1.0, 0.0], [0.0, 1.0]])
        codes = PolyCodes(np.array([[math.log(3.0), 0.0]]))
        V = encode_context(H, codes)
        assert V.shape == (1, 2)
        assert V[0] == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_uniform_attention_on_orthogonal_tokens(self):
        # A zero code attends uniformly: V = mean of token vectors.
        H = np.array([[2.0, 0.0], [0.0, 4.0]])
        codes = PolyCodes(np.zeros((1, 2)))
        V = encode_context(H, codes)
        assert V[0] == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_rows_live_in_token_convex_hull(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            H = rng.normal(size=(5, 8))
            codes = PolyCodes(rng.normal(size=(3, 8)))
            V = encode_context(H, codes)
            assert V.shape == (3, 8)
            # Each output row is a convex combination of token rows, so its
            # coordinates are bounded by the per-axis token extremes.
            for k in range(3):
                assert np.all(V[k] <= H.max(axis=0) + 1e-12)
                assert np.all(V[k] >= H.min(axis=0) - 1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            encode_context(np.ones((2, 3)), PolyCodes(np.ones((1, 4))))


class TestSimilarities:
    def test_train_similarity_hand_value(self):
        v_q = np.array([1.0, 0.0])
        V = np.array([[2.0, 0.0], [0.0, 2.0]])
        # Per-code dots a = (2, 0); weights softmax(a); sim = w . a.
        e2 = math.exp(2.0)
        expect = 2.0 * e2 / (e2 + 1.0)
        assert train_similarity(v_q, V) == pytest.approx(expect, abs=1e-12)

    def test_infer_similarity_is_max_dot(self):
        v_q = np.array([1.0, 0.0])
        V = np.array([[2.0, 0.0], [0.0, 5.0]])
        assert infer_similarity(v_q, V) == 2.0

    def test_infer_matches_brute_force_row_scan(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v_q = rng.normal(size=6)
            V = rng.normal(size=(4, 6))
            brute = max(float(np.dot(row, v_q)) for row in V)
            assert infer_similarity(v_q, V) == brute

    def test_train_similarity_between_min_and_max_dot(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v_q = rng.normal(size=5)
            V = rng.normal(size=(3, 5))
            dots = [float(np.dot(row, v_q)) for row in V]
            s = train_similarity(v_q, V)
            assert min(dots) - 1e-12 <= s <= max(dots) + 1e-12

    def test_k1_collapse_bitwise(self):
        # With one code both paths are exactly the plain inner product.
        rng = np.random.default_rng(21)
        for _ in range(200):
            v_q = rng.normal(size=16)
            V = rng.normal(size=(1, 16))
            inner = float(np.dot(V[0], v_q))
            assert train_similarity(v_q, V) == inner
            assert infer_similarity(v_q, V) == inner


class TestNll:
    def test_uniform_scores(self):
        assert nll_loss(np.zeros((4, 4))) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_hand_two_by_two(self):
        scores = np.array([[1.0, -1.0], [-1.0, 1.0]])
        expect = math.log(1.0 + math.exp(-2.0))
        assert nll_loss(scores) == pytest.approx(expect, abs=1e-12)

    def test_confident_diagonal_drives_loss_down(self):
        sharp = nll_loss(10.0 * np.eye(3))
        assert sharp < nll_loss(np.eye(3)) < nll_loss(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(DataError):
            nll_loss(np.zeros((2, 3)))


class TestModelAndCodes:
    def test_initialize_shapes_and_determinism(self):
        m1 = RetrieverModel.initialize(6, 32, seed=3)
        m2 = RetrieverModel.initialize(6, 32, seed=3)
        m3 = RetrieverModel.initialize(6, 32, seed=4)
        assert m1.codes.matrix.shape == (6, 32)
        assert m1.projection.shape == (32, 32)
        assert np.array_equal(m1.codes.matrix, m2.codes.matrix)
        assert np.array_equal(m1.projection, m2.projection)
        assert not np.array_equal(m1.codes.matrix, m3.codes.matrix)

    def test_copy_is_independent(self):
        m = RetrieverModel.initialize(2, 8, seed=0)
        c = m.copy()
        c.codes.matrix[0, 0] += 1.0
        assert m.codes.matrix[0, 0] != c.codes.matrix[0, 0]

    def test_model_round_trip(self, tmp_path):
        m = RetrieverModel.initialize(3, 16, seed=7, provenance={"note": "x"})
        p = str(tmp_path / "m.bin")
        m.save(p)
        back = RetrieverModel.load(p)
        assert np.array_equal(back.codes.matrix, m.codes.matrix)
        assert np.array_equal(back.projection, m.projection)
        assert back.provenance["note"] == "x"

    def test_model_file_byte_stable(self, tmp_path):
        m = RetrieverModel.initialize(3, 16, seed=7)
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        m.save(p1)
        RetrieverModel.load(p1).save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_checksum_tracks_content(self):
        a = PolyCodes(np.ones((2, 4)))
        b = PolyCodes(np.ones((2, 4)))
        c = PolyCodes(np.full((2, 4), 2.0))
        assert a.checksum() == b.checksum() != c.checksum()

    def test_garbage_file_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not a model at all")
        with pytest.raises(DataError):
            RetrieverModel.load(str(p))

    def test_query_provider_applies_projection(self):
        emb = HashingEmbedder(dim=16, seed=1)
        m = RetrieverModel.initialize(2, 16, seed=5)
        wrapped = m.query_provider(emb)
        expect = m.projection @ emb.query_vector("some text")
        assert np.allclose(wrapped.query_vector("some text"), expect, atol=1e-15)
        # Context-side vectors pass through untouched.
        assert np.array_equal(wrapped.token_vectors("some text"), emb.token_vectors("some text"))


class TestDenseIndex:
    def build(self, n=10, dim=16, k=3):
        emb = HashingEmbedder(dim=dim, seed=2)
        codes = PolyCodes(np.random.default_rng(0).normal(size=(k, dim)))
        segments = [seg(f"s{i:03d}#full_doc#0", f"text number w{i} and w{i+1}") for i in range(n)]
        return build_dense_index(segments, emb, codes), emb, codes

    def test_entries_and_shapes(self):
        index, _, _ = self.build(n=5, dim=16, k=3)
        assert len(index.entries) == 5
        assert index.entries.shape == (5, 3, 16)
        assert index.segment_refs == [f"s{i:03d}#full_doc#0" for i in range(5)]

    def test_duplicate_refs_rejected(self):
        emb = HashingEmbedder(dim=8, seed=2)
        codes = PolyCodes(np.zeros((1, 8)))
        s = seg("dup#full_doc#0", "words here")
        with pytest.raises(DataError):
            build_dense_index([s, s], emb, codes)

    def test_round_trip_byte_stable(self, tmp_path):
        index, _, _ = self.build()
        p1, p2 = str(tmp_path / "a.pdix"), str(tmp_path / "b.pdix")
        index.save(p1)
        back = DenseIndex.load(p1)
        assert back.d == index.d and back.k == index.k
        assert back.segment_refs == index.segment_refs
        for a, b in zip(back.entries, index.entries):
            assert np.array_equal(a, b)
        back.save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_search_matches_naive_double_loop(self):
        index, emb, codes = self.build(n=40)
        query = "text number w7 and w8"
        got = search_dense(index, query, emb, top_k=10)
        v_q = emb.query_vector(query)
        naive = []
        for ref, vectors in zip(index.segment_refs, index.entries):
            best = max(float(np.dot(row, v_q)) for row in vectors)
            naive.append((ref, best))
        naive.sort(key=lambda x: (-x[1], x[0]))
        assert got == naive[:10]

    def test_search_validates_top_k(self):
        index, emb, _ = self.build(n=3)
        with pytest.raises(ConfigError):
            search_dense(index, "text", emb, top_k=0)

    def test_non_finite_token_vectors_rejected(self):
        class NanTokens(HashingEmbedder):
            def token_vectors(self, text):
                out = super().token_vectors(text)
                out[0, 0] = np.nan
                return out

        codes = PolyCodes(np.ones((2, 8)))
        with pytest.raises(DataError, match="s000#full_doc#0.*non-finite"):
            build_dense_index([seg("s000#full_doc#0", "some words")], NanTokens(dim=8), codes)

    def test_failed_save_leaves_earlier_file(self, tmp_path, monkeypatch):
        index, _, _ = self.build(n=6)
        model = RetrieverModel.initialize(3, 16, seed=1)
        paths = [str(tmp_path / "dense.pdix"), str(tmp_path / "model.pdmo")]
        index.save(paths[0])
        model.save(paths[1])
        before = [open(p, "rb").read() for p in paths]

        real_open = open

        class DiskFull:
            """Writes the first 100 bytes through, then fails like a full disk."""

            def __init__(self, *args, **kwargs):
                self.fh, self.room = real_open(*args, **kwargs), 100

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                data = memoryview(data).cast("B")
                self.fh.write(data[: self.room])
                self.room -= min(self.room, len(data))
                if not self.room:
                    raise OSError(28, "No space left on device")

        monkeypatch.setattr(polydpr, "open", DiskFull, raising=False)
        smaller, _, _ = self.build(n=3)
        for save, path in ((smaller.save, paths[0]), (model.save, paths[1])):
            with pytest.raises(OSError):
                save(path)
        assert [open(p, "rb").read() for p in paths] == before
        assert sorted(os.listdir(tmp_path)) == ["dense.pdix", "model.pdmo"]


class FixedQuery:
    """Provider stub for search_dense: one fixed query vector for every text."""

    identity = "fixed"

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=np.float64)
        self.dimension = self.vector.size

    def query_vector(self, text):
        return self.vector


def double_loop(index, v_q):
    scored = []
    for ref, vectors in zip(index.segment_refs, index.entries):
        best = None
        for row in vectors:
            s = float(np.dot(row, v_q))
            if best is None or s > best:
                best = s
        scored.append((ref, best))
    scored.sort(key=lambda h: (-h[1], h[0]))
    return scored


class TestDenseSearchExactness:
    """search_dense must equal the per-row double loop, ties and ulps included."""

    def check_every_top_k(self, index, v_q):
        want = double_loop(index, v_q)
        for top_k in range(1, len(want) + 3):
            assert search_dense(index, "q", FixedQuery(v_q), top_k) == want[:top_k], top_k

    @pytest.mark.parametrize("k", [1, 3])
    def test_planted_ties_and_ulps(self, k):
        # Against a query with q[0] = 1, a code c * e_0 scores exactly c under
        # any summation order; the other codes score about c - 1.
        rng = np.random.default_rng(11)
        d = 16
        v_q = rng.uniform(-1, 1, size=d) / d
        v_q[0] = 1.0
        one_up, one_down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
        maxima = [1.0, 1.0, one_up, one_down, 1.0, one_down, 0.5, 0.5, 2.0, 1.0, one_up]
        entries = rng.uniform(-0.1, 0.1, size=(len(maxima), k, d)) / d
        for i, c in enumerate(maxima):
            entries[i, :, 0] = c - 1.0
            best = rng.integers(k)
            entries[i, best] = 0.0
            entries[i, best, 0] = c
        refs = [f"r{i:02d}" for i in rng.permutation(len(maxima))]
        index = DenseIndex(entries, refs, d, k, "fixed", "")
        assert [s for _, s in double_loop(index, v_q)][:7] == [
            2.0, one_up, one_up, 1.0, 1.0, 1.0, 1.0]
        self.check_every_top_k(index, v_q)

    def test_ulp_clusters(self):
        # Codes that differ from one base vector by ~1e-16 give scores a few
        # ulps apart, where the matrix product and per-row np.dot disagree.
        rng = np.random.default_rng(5)
        n, k, d = 300, 4, 64
        base = rng.normal(size=d)
        entries = base + 1e-16 * rng.normal(size=(n, k, d))
        v_q = rng.normal(size=d)
        refs = [f"c{i:03d}" for i in range(n)]
        index = DenseIndex(entries, refs, d, k, "fixed", "")
        want = double_loop(index, v_q)
        assert len({s for _, s in want}) < n  # ties exist
        for top_k in (1, 2, 5, 17, 100, n - 1, n, n + 5):
            assert search_dense(index, "q", FixedQuery(v_q), top_k) == want[:top_k]

    def test_empty_index(self):
        index = DenseIndex(np.empty((0, 2, 8)), [], 8, 2, "fixed", "")
        assert search_dense(index, "q", FixedQuery(np.ones(8)), 5) == []

    def test_non_finite_query_rejected(self):
        index = DenseIndex(np.ones((3, 2, 4)), ["a", "b", "c"], 4, 2, "fixed", "")
        with pytest.raises(DataError, match="non-finite"):
            search_dense(index, "q", FixedQuery([1.0, np.nan, 0.0, 0.0]), 2)

    def test_rescore_corrects_matrix_product_order(self):
        # Take the code whose matrix-product score is the most ulps away from
        # its np.dot score, then plant a rival that scores exactly the np.dot
        # value. The two tie under np.dot, where the ref decides, but not under
        # the product.
        rng = np.random.default_rng(3)
        n, d = 256, 64
        v_q = rng.normal(size=d)
        v_q[0] = 1.0
        entries = rng.normal(size=(n, 1, d))
        refs = [f"r{i:03d}" for i in range(n)]
        exact = np.array([np.dot(row, v_q) for row in entries[:, 0]])
        ulps = np.abs(entries.reshape(n, d) @ v_q - exact) / np.spacing(np.abs(exact))
        for i in np.argsort(-ulps, kind="stable")[: np.count_nonzero(ulps)]:
            j = (i + n // 2) % n
            planted = entries.copy()
            planted[j, 0] = 0.0
            planted[j, 0, 0] = exact[i]
            coarse = planted.reshape(n, d) @ v_q
            if coarse[i] != exact[i] and coarse[j] == exact[i]:
                break
        else:
            pytest.skip("this BLAS sums the matrix product exactly like np.dot")
        lo, hi = sorted([refs[i], refs[j]])
        refs[i], refs[j] = (lo, hi) if coarse[i] < exact[i] else (hi, lo)
        index = DenseIndex(planted, refs, d, 1, "fixed", "")
        want = double_loop(index, v_q)
        top_k = [ref for ref, _ in want].index(lo) + 1  # the pair straddles the cut
        by_product = sorted(zip(refs, coarse), key=lambda h: (-h[1], h[0]))
        assert [r for r, _ in by_product[:top_k]] != [r for r, _ in want[:top_k]]
        assert search_dense(index, "q", FixedQuery(v_q), top_k) == want[:top_k]
        self.check_every_top_k(index, v_q)


def toy_pairs(n=64, dim=32):
    # Each query shares a unique key token with its positive and nothing
    # else, so ranking is learnable from lexical overlap alone.
    return [
        TrainingPair(
            f"ask key{i} filler{i % 4}",
            f"body key{i} detail{i} other{i % 3}",
            TASK_SUPERVISED,
            f"d{i}",
        )
        for i in range(n)
    ]


class TestTraining:
    def test_loss_decreases_and_ranking_learned(self):
        emb = HashingEmbedder(dim=32, seed=6)
        pairs = toy_pairs()
        model = RetrieverModel.initialize(4, 32, seed=0)
        cfg = TrainConfig(epochs=100, batch_size=16, learning_rate=2.0, seed=0)
        trained = train(pairs, emb, model, cfg)
        losses = trained.provenance["epoch_losses"]
        assert losses[-1] < losses[0]

        segments = [seg(f"d{i}#full_doc#0", p.positive_text) for i, p in enumerate(pairs)]
        index = build_dense_index(segments, emb, trained.codes)
        wrapped = trained.query_provider(emb)
        hits_at_1 = 0
        for i, p in enumerate(pairs):
            top = search_dense(index, p.query_text, wrapped, top_k=1)
            hits_at_1 += top[0][0] == f"d{i}#full_doc#0"
        assert hits_at_1 / len(pairs) >= 0.9

    def test_input_model_untouched(self):
        emb = HashingEmbedder(dim=16, seed=6)
        model = RetrieverModel.initialize(2, 16, seed=0)
        before = model.codes.matrix.copy()
        train(toy_pairs(16, 16), emb, model, TrainConfig(epochs=2, batch_size=4, learning_rate=0.5, seed=0))
        assert np.array_equal(model.codes.matrix, before)

    def test_zero_epochs_returns_equal_model(self):
        emb = HashingEmbedder(dim=16, seed=6)
        model = RetrieverModel.initialize(2, 16, seed=0)
        out = train(toy_pairs(8, 16), emb, model, TrainConfig(epochs=0, batch_size=4, learning_rate=0.5, seed=0))
        assert np.array_equal(out.codes.matrix, model.codes.matrix)
        assert np.array_equal(out.projection, model.projection)

    def test_deterministic_per_seed(self):
        emb = HashingEmbedder(dim=16, seed=6)
        model = RetrieverModel.initialize(2, 16, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.5, seed=5)
        a = train(toy_pairs(24, 16), emb, model, cfg)
        b = train(toy_pairs(24, 16), emb, model, cfg)
        assert np.array_equal(a.codes.matrix, b.codes.matrix)
        assert np.array_equal(a.projection, b.projection)
        c = train(toy_pairs(24, 16), emb, model,
                  TrainConfig(epochs=3, batch_size=8, learning_rate=0.5, seed=6))
        assert not np.array_equal(a.codes.matrix, c.codes.matrix)

    def test_schedules_differ_and_record_provenance(self):
        emb = HashingEmbedder(dim=16, seed=6)
        model = RetrieverModel.initialize(2, 16, seed=0)
        main, pre = toy_pairs(16, 16), toy_pairs(16, 16)[::-1]
        seq = train(main, emb, model,
                    TrainConfig(epochs=2, batch_size=4, learning_rate=0.5, seed=0, schedule="sequential"),
                    pretrain_pairs=pre)
        multi = train(main, emb, model,
                      TrainConfig(epochs=2, batch_size=4, learning_rate=0.5, seed=0, schedule="multitask"),
                      pretrain_pairs=pre)
        assert seq.provenance["schedule"] == "sequential"
        assert multi.provenance["schedule"] == "multitask"
        assert not np.array_equal(seq.codes.matrix, multi.codes.matrix)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=-1, batch_size=4, learning_rate=0.5, seed=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, batch_size=1, learning_rate=0.5, seed=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, batch_size=4, learning_rate=0.0, seed=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, batch_size=4, learning_rate=0.5, seed=0, schedule="warmup")

    def test_empty_pairs_rejected(self):
        emb = HashingEmbedder(dim=16, seed=6)
        model = RetrieverModel.initialize(2, 16, seed=0)
        with pytest.raises(DataError):
            train([], emb, model, TrainConfig(epochs=1, batch_size=4, learning_rate=0.5, seed=0))


class TestGradCheck:
    def batch(self, n=4):
        return toy_pairs(n, 16)

    def test_analytic_matches_numeric(self):
        emb = HashingEmbedder(dim=16, seed=6)
        model = RetrieverModel.initialize(6, 16, seed=0)
        errors = grad_check(model, emb, self.batch(), epsilon=1e-5)
        assert set(errors) == {"codes", "projection"}
        assert errors["codes"] < 1e-4
        assert errors["projection"] < 1e-4

    def test_corrupted_gradient_flagged(self):
        emb = HashingEmbedder(dim=16, seed=6)
        model = RetrieverModel.initialize(6, 16, seed=0)
        errors = grad_check(model, emb, self.batch(), epsilon=1e-5, corrupt=("codes", 0, 0.1))
        assert errors["codes"] > 1e-2


# ---------------------------------------------------------------------------
# The per-context training step that the stacked step replaced, kept verbatim
# as an oracle: it loops over the batch's contexts one token matrix at a time.

_softmax_rows = polydpr._softmax_rows


def _batch_forward(M, P, U, Hs):
    """In-batch scores for queries U against contexts Hs under codes M, projection P.

    Returns (scores, cache) where the cache carries what backward needs.
    """
    v = U @ P.T
    b = U.shape[0]
    k, d = M.shape[0], M.shape[1]
    V = np.empty((b, k, d))
    W = []
    for j, H in enumerate(Hs):
        weights = _softmax_rows(M @ H.T)
        W.append(weights)
        V[j] = weights @ H
    code_dots = np.einsum("id,jkd->ijk", v, V)
    alpha = _softmax_rows(code_dots)
    scores = np.einsum("ijk,ijk->ij", alpha, code_dots)
    return scores, (v, V, W, code_dots, alpha)


def _batch_loss_and_grads(M, P, U, Hs):
    """Analytic gradients of the in-batch NLL with respect to M and P."""
    b = U.shape[0]
    scores, (v, V, W, code_dots, alpha) = _batch_forward(M, P, U, Hs)
    loss = nll_loss(scores)

    g_scores = (_softmax_rows(scores) - np.eye(b)) / b
    # d score_ij / d code_dots_ijk = alpha * (1 + code_dots - score)
    chain = alpha * (1.0 + code_dots - scores[:, :, None])
    g_dots = g_scores[:, :, None] * chain
    g_v = np.einsum("ijk,jkd->id", g_dots, V)
    g_V = np.einsum("ijk,id->jkd", g_dots, v)

    g_P = g_v.T @ U
    g_M = np.zeros_like(M)
    for j, H in enumerate(Hs):
        g_W = g_V[j] @ H.T
        w = W[j]
        g_S = w * (g_W - (g_W * w).sum(axis=1, keepdims=True))
        g_M += g_S @ H
    return loss, g_M, g_P


def _embed_pairs(pairs, provider):
    """Provider outputs for a pair list, cached per distinct text."""
    q_cache: dict[str, np.ndarray] = {}
    c_cache: dict[str, np.ndarray] = {}
    U = []
    Hs = []
    for p in pairs:
        u = q_cache.get(p.query_text)
        if u is None:
            u = np.asarray(provider.query_vector(p.query_text), dtype=np.float64)
            q_cache[p.query_text] = u
        H = c_cache.get(p.positive_text)
        if H is None:
            H = np.asarray(provider.token_vectors(p.positive_text), dtype=np.float64)
            c_cache[p.positive_text] = H
        U.append(u)
        Hs.append(H)
    return np.stack(U), Hs


def mixed_pairs(n, seed, max_len=30):
    """n >= max_len pairs whose contexts span token lengths 1..max_len, a
    third or more of them repeating another pair's context."""
    rng = np.random.default_rng(seed)

    def text(length):
        return " ".join(f"w{int(rng.integers(0, 300))}" for _ in range(length))

    lengths = list(range(1, max_len + 1))
    lengths += [int(x) for x in rng.integers(1, max_len + 1, size=max(0, 2 * n // 3 - max_len))]
    distinct = [text(length) for length in lengths]
    assert len(distinct) < n
    contexts = distinct + [distinct[int(i)] for i in rng.integers(0, len(distinct), n - len(distinct))]
    contexts = [contexts[int(i)] for i in rng.permutation(n)]
    return [
        TrainingPair(f"ask {text(int(rng.integers(1, 6)))}", c, TASK_SUPERVISED, f"d{i}")
        for i, c in enumerate(contexts)
    ]


def assert_close(got, want, rel=1e-12):
    """Normwise: the largest difference within rel of the largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestStackedStepMatchesPerContextOracle:
    @pytest.mark.parametrize("b", [2, 3, 64])
    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("code_scale", [1.0, 8.0])
    def test_loss_and_grads(self, b, k, code_scale):
        dim = 16
        emb = HashingEmbedder(dim=dim, seed=3)
        pairs = mixed_pairs(max(b, 80), seed=b * 10 + k)
        packed = polydpr._pack_pairs(pairs, emb, dim, "pair")
        U_all, Hs_all = _embed_pairs(pairs, emb)
        assert {len(H) for H in Hs_all} == set(range(1, 31))
        assert len({p.positive_text for p in pairs}) < len(pairs)
        rng = np.random.default_rng(b + k)
        model = RetrieverModel.initialize(k, dim, seed=b + k)
        M, P = code_scale * model.codes.matrix, model.projection
        for _ in range(5):
            idx = rng.permutation(len(pairs))[:b]
            U, groups = packed.batch(idx)
            assert np.array_equal(U, U_all[idx])
            loss, g_M, g_P = polydpr._loss_and_grads(M, P, U, groups)
            want_loss, want_M, want_P = _batch_loss_and_grads(M, P, U, [Hs_all[i] for i in idx])
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            assert_close(g_M, want_M)
            assert_close(g_P, want_P)

    def test_each_distinct_context_stacked_once(self):
        emb = HashingEmbedder(dim=8, seed=3)
        pairs = mixed_pairs(64, seed=5)
        packed = polydpr._pack_pairs(pairs, emb, 8, "pair")
        distinct = {p.positive_text for p in pairs}
        assert sum(len(s) for s in packed.stacks.values()) == len(distinct)
        for p, length, row in zip(pairs, packed.lengths, packed.rows):
            assert np.array_equal(packed.stacks[length][row], emb.token_vectors(p.positive_text))


class TestStackedIndexBuild:
    @pytest.mark.parametrize("block", [4, 1024])
    def test_entries_equal_per_segment_encoding(self, monkeypatch, block):
        monkeypatch.setattr(polydpr, "_INDEX_BLOCK", block)
        emb = HashingEmbedder(dim=16, seed=2)
        codes = PolyCodes(4.0 * np.random.default_rng(1).normal(size=(6, 16)))
        pairs = mixed_pairs(40, seed=9)
        segments = [seg(f"s{i:03d}#full_doc#0", p.positive_text) for i, p in enumerate(pairs)]
        index = build_dense_index(segments, emb, codes)
        for s, entry in zip(segments, index.entries):
            H = emb.token_vectors(s.text)
            assert np.array_equal(entry, _softmax_rows(codes.matrix @ H.T) @ H)
            assert np.array_equal(entry, encode_context(H, codes))


class TestTrainingProviders:
    def test_vector_file_trains_byte_identical_model(self, tmp_path):
        emb = HashingEmbedder(dim=16, seed=6)
        main, pre = mixed_pairs(48, seed=1), mixed_pairs(40, seed=2)
        both = main + pre
        vectors = str(tmp_path / "vectors.npz")
        dump_vectors(vectors, emb, sorted({p.positive_text for p in both}),
                     sorted({p.query_text for p in both}))
        model = RetrieverModel.initialize(3, 16, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1.0, seed=4, schedule="multitask")
        paths = []
        for provider in (emb, VectorFileProvider(vectors)):
            paths.append(str(tmp_path / f"model{len(paths)}.pdmo"))
            train(main, provider, model, cfg, pretrain_pairs=pre).save(paths[-1])
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


class Tampered(HashingEmbedder):
    """Hashing vectors, except for the texts of the pair that starts with 'bad'."""

    def __init__(self, context=None, query=None):
        super().__init__(dim=8, seed=1)
        self.context, self.query = context, query

    def token_vectors(self, text):
        out = super().token_vectors(text)
        return self.context(out) if self.context and text.startswith("bad context") else out

    def query_vector(self, text):
        out = super().query_vector(text)
        return self.query(out) if self.query and text.startswith("bad question") else out


def with_nan(a):
    a = a.copy()
    a.reshape(-1)[0] = np.nan
    return a


class TestBadTrainingVectors:
    def pairs(self):
        good = [TrainingPair(f"ask k{i}", f"body k{i} more", TASK_SUPERVISED, f"d{i}") for i in range(3)]
        bad = TrainingPair("bad question text", "bad context " + "x" * 60, TASK_SUPERVISED, "d9")
        return good[:2] + [bad] + good[2:]

    @pytest.mark.parametrize("tamper,problem", [
        (lambda h: h[0], r"token matrix of shape \(8,\) is not"),
        (lambda h: h[None], r"token matrix of shape \(1, 3, 8\) is not"),
        (lambda h: h[:0], r"token matrix of shape \(0, 8\) is not"),
        (lambda h: h[:, :5], r"token matrix of shape \(3, 5\) is not"),
        (lambda h: np.where(h == 0, np.inf, h), "non-finite token vectors"),
        (with_nan, "non-finite token vectors"),
    ])
    def test_context_matrix_rejected(self, tamper, problem):
        model = RetrieverModel.initialize(2, 8, seed=0)
        cfg = TrainConfig(epochs=1, batch_size=2, learning_rate=0.5, seed=0)
        want = r"pair 3 context 'bad context x{28}': " + problem
        with pytest.raises(DataError, match=want):
            train(self.pairs(), Tampered(context=tamper), model, cfg)
        with pytest.raises(DataError, match="pretraining " + want):
            train(self.pairs()[:2], Tampered(context=tamper), model, cfg,
                  pretrain_pairs=self.pairs())
        with pytest.raises(DataError, match=want):
            grad_check(model, Tampered(context=tamper), self.pairs())

    @pytest.mark.parametrize("tamper,problem", [
        (with_nan, "non-finite query vector"),
        (lambda u: -np.inf * u, "non-finite query vector"),
        (lambda u: u[:4], r"vector of shape \(4,\) is not \(8,\)"),
    ])
    def test_query_vector_rejected(self, tamper, problem):
        model = RetrieverModel.initialize(2, 8, seed=0)
        cfg = TrainConfig(epochs=1, batch_size=2, learning_rate=0.5, seed=0)
        with pytest.raises(DataError, match="pair 3 query 'bad question text': " + problem):
            train(self.pairs(), Tampered(query=tamper), model, cfg)

    def test_provider_error_names_the_pair(self):
        model = RetrieverModel.initialize(2, 8, seed=0)
        cfg = TrainConfig(epochs=1, batch_size=2, learning_rate=0.5, seed=0)
        pairs = self.pairs()
        pairs[3] = TrainingPair("ask more", "???", TASK_SUPERVISED, "d8")
        with pytest.raises(DataError, match="pair 4 context '[?]{3}': cannot embed a text with no tokens"):
            train(pairs, HashingEmbedder(dim=8, seed=1), model, cfg)

    def test_provider_that_changes_its_answer_rejected(self):
        class Shrinking(HashingEmbedder):
            calls = 0

            def token_vectors(self, text):
                out = super().token_vectors(text)
                if text == "ask":
                    return out
                self.calls += 1
                return out[: 4 - self.calls]

        model = RetrieverModel.initialize(2, 8, seed=0)
        cfg = TrainConfig(epochs=1, batch_size=2, learning_rate=0.5, seed=0)
        pairs = [TrainingPair("ask", "one two three four", TASK_SUPERVISED, "d1")] * 2
        with pytest.raises(DataError, match="pair 1 context 'one two three four': 2 token vectors, 3 on"):
            train(pairs, Shrinking(dim=8, seed=1), model, cfg)
