"""Multi-vector dense retrieval.

A context is encoded as K vectors, one per global learnable code: code k
attends over the context's token vectors with softmax(m_k . h_t) weights and
pools them. Training scores a query against the attention-weighted mixture of
the K codes (soft, differentiable); inference scores it against the best
single code (max), which is what a MIPS index can serve. With K=1 both
collapse to the plain inner product.

The trainable surface at desk scale is the code matrix plus a d x d linear
projection applied to query vectors, standing in for query-encoder
finetuning. Training is plain SGD on an in-batch softmax NLL, double
precision, with analytic gradients checked against central differences.

Similarity scores are per-row np.dot, so they are bit-identical to a naive
double-loop oracle and the K=1 collapse is exact, not approximate. Dense
search scans the whole index with one matrix-vector product, whose scores can
differ from per-row np.dot in the last bits, and then re-scores with per-row
np.dot every entry that a certified rounding bound cannot rule out of the
top k. Its output is therefore bit-identical to the exhaustive per-row scan.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import logging
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import ConfigError, DataError, StageError
from .corpus import Segment
from .embedding import EmbeddingProvider
from .pretrain import TrainingPair

log = logging.getLogger(__name__)

DEFAULT_K = 6

SCHEDULE_SEQUENTIAL = "sequential"
SCHEDULE_MULTITASK = "multitask"
SCHEDULES = (SCHEDULE_SEQUENTIAL, SCHEDULE_MULTITASK)


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x)
    e = np.exp(shifted)
    return e / e.sum()


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    m = np.max(x, axis=-1)
    return m + np.log(np.exp(x - m[..., None]).sum(axis=-1))


def _canonical_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


@dataclass
class PolyCodes:
    """The K global code vectors, rows of a (K, d) matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ConfigError("code matrix must be 2-dimensional")
        if self.matrix.shape[0] < 1:
            raise ConfigError("at least one code is required (K=1 recovers single-vector retrieval)")

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    def checksum(self) -> str:
        return hashlib.sha256(_canonical_bytes(self.matrix)).hexdigest()


def encode_context(token_vectors: np.ndarray, codes: PolyCodes) -> np.ndarray:
    """Pool a context's token matrix into K code vectors.

    Row k is the softmax(m_k . h_t)-weighted sum of the token vectors, so each
    code vector is a convex combination of the tokens.
    """
    h = np.asarray(token_vectors, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] < 1:
        raise DataError("token matrix must be (n, d) with n >= 1")
    if h.shape[1] != codes.d:
        raise ConfigError(f"token dimension {h.shape[1]} != code dimension {codes.d}")
    weights = _softmax_rows(codes.matrix @ h.T)
    return weights @ h


def _code_dots(v_q: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # Per-row ddot keeps scores bit-identical to a double-loop oracle.
    return np.array([np.dot(row, v_q) for row in vectors])


def train_similarity(v_q: np.ndarray, vectors: np.ndarray) -> float:
    """Soft score: attention over the K codes, then dot with the query.

    Computed as dot(softmax(a), a) where a holds the per-code dots, which is
    algebraically the query-times-pooled-codes form and collapses exactly to
    a[0] when K=1. A zero query gives uniform attention and score 0.
    """
    a = _code_dots(v_q, vectors)
    return float(np.dot(_softmax(a), a))


def infer_similarity(v_q: np.ndarray, vectors: np.ndarray) -> float:
    """Hard score: the best single code's dot with the query."""
    return float(np.max(_code_dots(v_q, vectors)))


# ---------------------------------------------------------------------------
# Dense index: one (N, K, d) array of code vectors, scored by a coarse scan and
# an exact re-score of the entries that could still be in the top k.

# Every key of a container's JSON header, with its type; all are required.
_PDIX_HEADER = {
    "version": int, "d": int, "k": int, "count": int,
    "embedder_id": str, "codes_checksum": str, "segment_refs": list,
}
_PDMO_HEADER = {"version": int, "d": int, "k": int, "seed": int, "provenance": dict}

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


@dataclass(eq=False)
class DenseIndex:
    entries: np.ndarray  # (N, K, d): row i holds the K code vectors of segment_refs[i]
    segment_refs: list[str]
    d: int
    k: int
    embedder_id: str
    codes_checksum: str
    code_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.entries = np.ascontiguousarray(self.entries, dtype=np.float64)
        if self.entries.shape != (len(self.segment_refs), self.k, self.d):
            raise DataError(
                f"entries of shape {self.entries.shape} do not match "
                f"{len(self.segment_refs)} refs, K={self.k}, d={self.d}"
            )
        # Largest code norm per entry, for search_dense's rounding bound.
        squares = np.einsum("nkd,nkd->nk", self.entries, self.entries)
        self.code_norms = np.sqrt(squares.max(axis=1, initial=0.0))

    def save(self, path: str) -> None:
        header = {
            "version": 1,
            "d": self.d,
            "k": self.k,
            "count": len(self.segment_refs),
            "embedder_id": self.embedder_id,
            "codes_checksum": self.codes_checksum,
            "segment_refs": self.segment_refs,
        }
        _write_atomic(path, _container_parts(b"PDIX", header, self.entries))

    @classmethod
    def load(cls, path: str) -> "DenseIndex":
        header, payload = _read_container(path, b"PDIX", _PDIX_HEADER)
        d, k, count, refs = header["d"], header["k"], header["count"], header["segment_refs"]
        if len(refs) != count or not all(isinstance(ref, str) for ref in refs):
            raise DataError(f"{path}: segment_refs is not a list of {count} strings")
        if payload.size != count * k * d:
            raise DataError(f"{path}: payload size does not match header")
        return cls(
            payload.reshape(count, k, d), refs, d, k,
            header["embedder_id"], header["codes_checksum"],
        )


def _container_parts(magic: bytes, header: dict, payload: np.ndarray) -> list:
    """A container's bytes as a list: the prefix, then the payload's own buffer."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = b"".join([magic, struct.pack("<II", 1, len(blob)), blob])
    return [prefix, np.ascontiguousarray(payload, dtype="<f8")]


def _write_atomic(path: str, parts: list) -> None:
    """Write parts to a temporary file beside path, then rename it over path.

    A write that fails partway leaves any earlier file at path as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _read_container(path: str, magic: bytes, required: dict) -> tuple[dict, np.ndarray]:
    """Header and payload of a container, or DataError naming the file."""
    with open(path, "rb") as fh:
        prefix = fh.read(12)
        if len(prefix) < 12 or prefix[:4] != magic:
            raise DataError(f"{path}: not a {magic.decode()} file")
        version, header_len = struct.unpack("<II", prefix[4:12])
        if version != 1:
            raise DataError(f"{path}: unsupported version {version}")
        rest = os.fstat(fh.fileno()).st_size - 12
        if header_len > rest:
            raise DataError(f"{path}: header length {header_len} exceeds the {rest} bytes left")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise DataError(f"{path}: header is not valid JSON ({exc})") from None
        rest -= header_len
        if rest % 8:
            raise DataError(f"{path}: payload of {rest} bytes is not whole float64 values")
        payload = np.empty(rest // 8, dtype="<f8")
        if fh.readinto(memoryview(payload).cast("B")) != rest:
            raise DataError(f"{path}: payload ended early")
    if not isinstance(header, dict):
        raise DataError(f"{path}: header is not a JSON object")
    for key, kind in required.items():
        value = header.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise DataError(f"{path}: header key '{key}' is missing or not {kind.__name__}")
    if header["version"] != 1 or header["d"] < 1 or header["k"] < 1:
        raise DataError(f"{path}: header needs version 1 and positive d and k")
    if not np.isfinite(payload).all():
        raise DataError(f"{path}: payload holds non-finite values")
    return header, payload.astype(np.float64, copy=False)


def build_dense_index(
    segments: Iterable[Segment],
    provider: EmbeddingProvider,
    codes: PolyCodes,
) -> DenseIndex:
    if provider.dimension != codes.d:
        raise ConfigError(
            f"provider dimension {provider.dimension} != code dimension {codes.d}"
        )
    segments = list(segments)
    entries = np.empty((len(segments), codes.k, codes.d))
    refs: list[str] = []
    seen: set[str] = set()
    for i, seg in enumerate(segments):
        if seg.segment_id in seen:
            raise DataError(f"duplicate segment id '{seg.segment_id}'")
        seen.add(seg.segment_id)
        tokens = np.asarray(provider.token_vectors(seg.text), dtype=np.float64)
        if not np.isfinite(tokens).all():
            raise DataError(f"segment '{seg.segment_id}' has non-finite token vectors")
        entries[i] = encode_context(tokens, codes)
        refs.append(seg.segment_id)
    return DenseIndex(
        entries=entries,
        segment_refs=refs,
        d=codes.d,
        k=codes.k,
        embedder_id=provider.identity,
        codes_checksum=codes.checksum(),
    )


def search_dense(
    index: DenseIndex,
    query: str,
    provider: EmbeddingProvider,
    top_k: int,
) -> list[tuple[str, float]]:
    """Exact flat MIPS: max over each entry's codes, ties by segment id.

    One matrix-vector product gives every entry a coarse score. Entries whose
    coarse score cannot reach the k-th best under the rounding bound are
    dropped; the rest are re-scored with infer_similarity, so scores and
    order are bit-identical to an exhaustive per-row scan.
    """
    if top_k <= 0:
        raise ConfigError(f"top_k must be positive, got {top_k}")
    if provider.dimension != index.d:
        raise ConfigError(f"provider dimension {provider.dimension} != index dimension {index.d}")
    base_id = provider.identity
    if base_id != index.embedder_id and base_id != f"projected({index.embedder_id})":
        log.warning(
            "searching index built with '%s' using provider '%s'", index.embedder_id, base_id
        )
    v_q = np.asarray(provider.query_vector(query), dtype=np.float64)
    if not np.isfinite(v_q).all():
        raise DataError(f"query {query[:40]!r} has a non-finite vector")
    n, k, d = index.entries.shape
    scores = (index.entries.reshape(n * k, d) @ v_q).reshape(n, k)
    # Max over codes one column at a time; a reduction along the short K axis
    # costs about half as much again as the matrix-vector product itself.
    coarse = functools.reduce(np.maximum, scores.T)
    candidates = range(n)
    if top_k < n:
        # A float64 dot product of length d, in any summation order, is within
        # gamma_d * |r| |q| of the true value (Higham, Accuracy and Stability
        # of Numerical Algorithms, 3.1), so coarse and exact maxima differ by at
        # most twice that. The extra 1% covers the rounding of the norms and of
        # the bound itself, the absolute term covers underflow, and nextafter
        # covers the rounding of the sums below.
        gamma = d * _UNIT_ROUNDOFF / (1 - d * _UNIT_ROUNDOFF)
        slack = 2.02 * gamma * float(np.linalg.norm(v_q)) * index.code_norms
        slack += 2 * d * _SMALLEST_SUBNORMAL
        upper = np.nextafter(coarse + slack, np.inf)
        lower = np.nextafter(coarse - slack, -np.inf)
        floor = np.partition(lower, n - top_k)[n - top_k]  # k-th best lower bound
        # Written as a negation so that a NaN (from overflow) keeps the entry.
        candidates = np.flatnonzero(~(upper < floor))
    hits = [(index.segment_refs[i], infer_similarity(v_q, index.entries[i])) for i in candidates]
    hits.sort(key=lambda h: (-h[1], h[0]))
    return hits[:top_k]


# ---------------------------------------------------------------------------
# Model: codes plus the query-side projection, with enough provenance to
# rebuild the embedding provider that trained it.

@dataclass
class RetrieverModel:
    codes: PolyCodes
    projection: np.ndarray
    seed: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        d = self.codes.d
        if self.projection.shape != (d, d):
            raise ConfigError(f"projection must be ({d}, {d}), got {self.projection.shape}")

    @property
    def d(self) -> int:
        return self.codes.d

    @property
    def k(self) -> int:
        return self.codes.k

    @classmethod
    def initialize(cls, k: int, d: int, seed: int, provenance: dict | None = None) -> "RetrieverModel":
        """Seeded normal codes and projection, both scaled by 1/sqrt(d).

        The projection starts random, not at identity, so an untrained model
        is a chance-level baseline rather than a disguised lexical matcher.
        """
        rng = np.random.default_rng(seed)
        scale = 1.0 / math.sqrt(d)
        codes = PolyCodes(rng.normal(0.0, scale, size=(k, d)))
        projection = rng.normal(0.0, scale, size=(d, d))
        return cls(codes, projection, seed, dict(provenance or {}))

    def copy(self) -> "RetrieverModel":
        return RetrieverModel(
            PolyCodes(self.codes.matrix.copy()),
            self.projection.copy(),
            self.seed,
            json.loads(json.dumps(self.provenance)),
        )

    def query_provider(self, base: EmbeddingProvider) -> "ProjectedProvider":
        return ProjectedProvider(base, self.projection)

    def save(self, path: str) -> None:
        header = {
            "version": 1,
            "d": self.d,
            "k": self.k,
            "seed": self.seed,
            "provenance": self.provenance,
        }
        payload = np.concatenate([self.codes.matrix.reshape(-1), self.projection.reshape(-1)])
        _write_atomic(path, _container_parts(b"PDMO", header, payload))

    @classmethod
    def load(cls, path: str) -> "RetrieverModel":
        header, payload = _read_container(path, b"PDMO", _PDMO_HEADER)
        d, k = header["d"], header["k"]
        if payload.size != k * d + d * d:
            raise DataError(f"{path}: payload size does not match header")
        codes = PolyCodes(payload[: k * d].reshape(k, d))
        projection = payload[k * d :].reshape(d, d)
        return cls(codes, projection, header["seed"], header["provenance"])


class ProjectedProvider:
    """Wraps a provider, applying the model's projection to query vectors only."""

    def __init__(self, base: EmbeddingProvider, projection: np.ndarray):
        self._base = base
        self._projection = np.asarray(projection, dtype=np.float64)

    @property
    def dimension(self) -> int:
        return self._base.dimension

    @property
    def identity(self) -> str:
        return f"projected({self._base.identity})"

    def token_vectors(self, text: str) -> np.ndarray:
        return self._base.token_vectors(text)

    def query_vector(self, text: str) -> np.ndarray:
        return self._projection @ self._base.query_vector(text)


# ---------------------------------------------------------------------------
# Training.

def nll_loss(scores: np.ndarray) -> float:
    """Mean over rows of -log softmax(row)[i] on a square in-batch score matrix."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DataError(f"in-batch score matrix must be square, got {s.shape}")
    return float(np.mean(_logsumexp_rows(s) - np.diag(s)))


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 0.5
    seed: int = 0
    schedule: str = SCHEDULE_SEQUENTIAL

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(
                f"batch size must be at least 2 for in-batch negatives, got {self.batch_size}"
            )
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning rate must be positive and finite, got {self.learning_rate}"
            )
        if self.schedule not in SCHEDULES:
            raise ConfigError(
                f"unknown schedule '{self.schedule}' (known: {', '.join(SCHEDULES)})"
            )


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


def _batch_loss(M, P, U, Hs) -> float:
    scores, _ = _batch_forward(M, P, U, Hs)
    return nll_loss(scores)


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


def _embed_pairs(pairs: Sequence[TrainingPair], provider: EmbeddingProvider):
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


def _epoch_batches(rng, n: int, batch_size: int) -> list[np.ndarray]:
    perm = rng.permutation(n)
    batches = [perm[i : i + batch_size] for i in range(0, n, batch_size)]
    return [b for b in batches if len(b) >= 2]


def train(
    pairs: Sequence[TrainingPair],
    provider: EmbeddingProvider,
    model: RetrieverModel,
    config: TrainConfig,
    pretrain_pairs: Sequence[TrainingPair] | None = None,
) -> RetrieverModel:
    """SGD on the in-batch NLL. Returns a new model; the input is untouched.

    With pretrain pairs, the sequential schedule runs a full pass over them
    first and then over the main pairs; the multitask schedule interleaves
    batches from both sets round-robin within every epoch. Per-epoch mean
    losses land in the returned model's provenance. A non-finite batch loss,
    or non-finite parameters at the end of an epoch, raise StageError naming
    the epoch (counted across both phases) and the step.
    """
    if not pairs:
        raise DataError("no training pairs")
    if provider.dimension != model.d:
        raise ConfigError(f"provider dimension {provider.dimension} != model dimension {model.d}")

    out = model.copy()
    M, P = out.codes.matrix, out.projection
    rng = np.random.default_rng(config.seed)
    losses: list[float] = []

    def run_epochs(sets):
        nonlocal M, P
        for _ in range(config.epochs):
            batches = []
            per_set = [_epoch_batches(rng, len(Hs), config.batch_size) for _, Hs in sets]
            # Round-robin interleave; a lone set degenerates to its own order.
            longest = max((len(b) for b in per_set), default=0)
            for i in range(longest):
                for set_idx, set_batches in enumerate(per_set):
                    if i < len(set_batches):
                        batches.append((set_idx, set_batches[i]))
            epoch = len(losses) + 1
            epoch_losses = []
            for step, (set_idx, idx) in enumerate(batches, start=1):
                U, Hs = sets[set_idx]
                loss, g_M, g_P = _batch_loss_and_grads(M, P, U[idx], [Hs[i] for i in idx])
                if not math.isfinite(loss):
                    raise StageError("train", f"non-finite loss {loss} at epoch {epoch} step {step}; "
                                     "lower the learning rate")
                M -= config.learning_rate * g_M
                P -= config.learning_rate * g_P
                epoch_losses.append(loss)
            if not (np.isfinite(M).all() and np.isfinite(P).all()):
                raise StageError("train", f"non-finite parameters after epoch {epoch}; "
                                 "lower the learning rate")
            losses.append(float(np.mean(epoch_losses)) if epoch_losses else math.nan)

    main_set = _embed_pairs(pairs, provider)
    if pretrain_pairs:
        pre_set = _embed_pairs(pretrain_pairs, provider)
        if config.schedule == SCHEDULE_SEQUENTIAL:
            run_epochs([pre_set])
            run_epochs([main_set])
        else:
            run_epochs([pre_set, main_set])
    else:
        run_epochs([main_set])

    out.provenance.update(
        {
            "schedule": config.schedule,
            "epochs": config.epochs,
            "batch_size": config.batch_size,
            "learning_rate": config.learning_rate,
            "train_seed": config.seed,
            "n_pairs": len(pairs),
            "n_pretrain_pairs": len(pretrain_pairs) if pretrain_pairs else 0,
            "epoch_losses": losses,
        }
    )
    return out


def grad_check(
    model: RetrieverModel,
    provider: EmbeddingProvider,
    batch: Sequence[TrainingPair],
    epsilon: float = 1e-5,
    corrupt: tuple[str, int, float] | None = None,
) -> dict[str, float]:
    """Max relative error between analytic and central-difference gradients.

    Relative error per parameter is |a - n| / max(1, |a|, |n|). The corrupt
    hook (parameter name "codes" or "projection", flat index, delta) perturbs
    the analytic gradient before comparison; it exists so the check can prove
    it would catch a wrong gradient.
    """
    if len(batch) < 2:
        raise ConfigError("gradient check needs a batch of at least 2 pairs")
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    U, Hs = _embed_pairs(batch, provider)
    M = model.codes.matrix.copy()
    P = model.projection.copy()
    _, g_M, g_P = _batch_loss_and_grads(M, P, U, Hs)
    analytic = {"codes": g_M.copy(), "projection": g_P.copy()}
    if corrupt is not None:
        name, flat_index, delta = corrupt
        if name not in analytic:
            raise ConfigError(f"unknown parameter '{name}'")
        analytic[name].reshape(-1)[flat_index] += delta

    errors = {}
    for name, param in (("codes", M), ("projection", P)):
        flat = param.reshape(-1)
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + epsilon
            up = _batch_loss(M, P, U, Hs)
            flat[i] = saved - epsilon
            down = _batch_loss(M, P, U, Hs)
            flat[i] = saved
            numeric[i] = (up - down) / (2.0 * epsilon)
        a = analytic[name].reshape(-1)
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
        errors[name] = float(np.max(np.abs(a - numeric) / denom))
    return errors
