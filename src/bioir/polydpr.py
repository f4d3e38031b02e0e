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
Before the first step each distinct context is stacked once, with the others
of its token length, into an (n_L, L, d) array. A step then computes its
batch per token-length group with matmuls: the code attention, the pooling
and their backward pass run on each group's stack, and the in-batch code dots
and their gradients are matmuls over all K*b code vectors of the batch. The
same stacked encoder builds the dense index, so index entries are
bit-identical to encoding each segment alone.

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


def _encode_stack(M: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attention weights (n, K, L) and code vectors (n, K, d) of a stack H (n, L, d).

    The one encoder behind encode_context, training and build_dense_index.
    Contexts are stacked only with others of the same token length, never
    padded, so each slice gets the same softmax sums and the same gemm calls
    as a context encoded on its own: the output is bit-identical either way.
    """
    weights = _softmax_rows(M @ H.transpose(0, 2, 1))
    return weights, weights @ H


def _context_matrix(provider: EmbeddingProvider, text: str, d: int, where: str) -> np.ndarray:
    """provider.token_vectors(text), or DataError prefixed by `where`."""
    try:
        h = np.asarray(provider.token_vectors(text), dtype=np.float64)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None
    if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] != d:
        raise DataError(f"{where}: token matrix of shape {h.shape} is not (n, {d}) with n >= 1")
    if not np.isfinite(h).all():
        raise DataError(f"{where}: non-finite token vectors")
    return h


def _stack_by_length(lengths: np.ndarray, matrices: Iterable[np.ndarray], d: int):
    """Copy (L, d) matrices with the given row counts into one (n_L, L, d) stack per L.

    Returns ({L: stack}, each matrix's row in its stack). The stacks are sized
    from `lengths` before the first copy, so no stack is ever regrown.
    """
    rows = np.empty(len(lengths), dtype=np.intp)
    stacks: dict[int, np.ndarray] = {}
    for length in np.unique(lengths):
        members = np.flatnonzero(lengths == length)
        rows[members] = np.arange(len(members))
        stacks[int(length)] = np.empty((len(members), length, d))
    for h, length, row in zip(matrices, lengths, rows):
        stacks[length][row] = h
    return stacks, rows


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
    return _encode_stack(codes.matrix, h[None])[1][0]


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


_INDEX_BLOCK = 64  # segments whose token matrices build_dense_index stacks at once


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
    refs: list[str] = []
    seen: set[str] = set()
    for seg in segments:
        if seg.segment_id in seen:
            raise DataError(f"duplicate segment id '{seg.segment_id}'")
        seen.add(seg.segment_id)
        refs.append(seg.segment_id)
    entries = np.empty((len(segments), codes.k, codes.d))
    # A block at a time, so that only one block's token matrices are held.
    for start in range(0, len(segments), _INDEX_BLOCK):
        block = segments[start : start + _INDEX_BLOCK]
        matrices = [
            _context_matrix(provider, seg.text, codes.d, f"segment '{seg.segment_id}'")
            for seg in block
        ]
        lengths = np.array([len(h) for h in matrices], dtype=np.intp)
        stacks, _ = _stack_by_length(lengths, matrices, codes.d)
        for length, H in stacks.items():
            entries[start + np.flatnonzero(lengths == length)] = _encode_stack(codes.matrix, H)[1]
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


def _forward(M, P, U, groups):
    """In-batch scores for queries U (b, d) against the batch's contexts.

    groups holds one (positions, stack) per token length: the (n, L, d) stack
    of that length's contexts and the batch rows they belong to. Code vectors
    are kept code-major, V[k, j] for context j, so every per-code dot of every
    (query, context) pair is one matmul and the softmax over codes reduces
    along the leading axis. Returns (scores, cache); backward needs the cache.
    """
    k, d = M.shape
    b = U.shape[0]
    v = U @ P.T
    V = np.empty((k, b, d))
    weights = []
    for pos, H in groups:
        w, pooled = _encode_stack(M, H)
        weights.append(w)
        V[:, pos] = pooled.transpose(1, 0, 2)
    flat = V.reshape(k * b, d)
    dots = (flat @ v.T).reshape(k, b, b)  # dots[k, j, i] = v_i . V[k, j]
    e = np.exp(dots - dots.max(axis=0))
    alpha = e / e.sum(axis=0)
    scores = (alpha * dots).sum(axis=0).T
    return scores, (v, flat, weights, dots, alpha)


def _loss(M, P, U, groups) -> float:
    scores, _ = _forward(M, P, U, groups)
    return nll_loss(scores)


def _loss_and_grads(M, P, U, groups):
    """The in-batch NLL and its analytic gradients with respect to M and P."""
    k, d = M.shape
    b = U.shape[0]
    scores, (v, flat, weights, dots, alpha) = _forward(M, P, U, groups)
    loss = nll_loss(scores)

    g_scores = (_softmax_rows(scores) - np.eye(b)) / b
    # d score_ij / d dots_kji = alpha_kji * (1 + dots_kji - score_ij)
    g_dots = (g_scores.T * alpha * (1.0 + dots - scores.T)).reshape(k * b, b)
    g_v = g_dots.T @ flat
    g_V = (g_dots @ v).reshape(k, b, d)

    g_P = g_v.T @ U
    g_M = np.zeros_like(M)
    for (pos, H), w in zip(groups, weights):
        g_W = g_V[:, pos].transpose(1, 0, 2) @ H.transpose(0, 2, 1)
        g_S = w * (g_W - (g_W * w).sum(axis=-1, keepdims=True))
        n, _, length = g_S.shape
        g_M += g_S.transpose(1, 0, 2).reshape(k, n * length) @ H.reshape(n * length, d)
    return loss, g_M, g_P


@dataclass(eq=False)
class _PairSet:
    """A pair list's provider outputs: one query row per pair, and each
    distinct context once, stacked by token length."""

    queries: np.ndarray  # (n, d)
    lengths: np.ndarray  # (n,) token length of each pair's context
    rows: np.ndarray  # (n,) that context's row in stacks[length]
    stacks: dict[int, np.ndarray]  # length L -> (n_L, L, d)

    def __len__(self) -> int:
        return len(self.queries)

    def batch(self, idx: np.ndarray) -> tuple[np.ndarray, list]:
        """Queries of pairs idx, and their contexts as (positions, stack) per length."""
        lengths = self.lengths[idx]
        groups = []
        for length in np.unique(lengths):
            pos = np.flatnonzero(lengths == length)
            groups.append((pos, self.stacks[length][self.rows[idx[pos]]]))
        return self.queries[idx], groups


def _pack_pairs(pairs: Sequence[TrainingPair], provider: EmbeddingProvider, d: int,
                label: str) -> _PairSet:
    """Provider outputs for a pair list, computed once per distinct text.

    A bad vector raises DataError naming the pair's 1-based position in the
    list (under `label`) and the start of its text.
    """
    queries = np.empty((len(pairs), d))
    first_query: dict[str, int] = {}
    contexts: dict[str, int] = {}  # distinct context text -> its index
    context_of = np.empty(len(pairs), dtype=np.intp)
    for i, p in enumerate(pairs):
        first = first_query.setdefault(p.query_text, i)
        if first == i:
            where = f"{label} {i + 1} query {p.query_text[:40]!r}"
            try:
                u = np.asarray(provider.query_vector(p.query_text), dtype=np.float64)
            except DataError as exc:
                raise DataError(f"{where}: {exc}") from None
            if u.shape != (d,):
                raise DataError(f"{where}: vector of shape {u.shape} is not ({d},)")
            if not np.isfinite(u).all():
                raise DataError(f"{where}: non-finite query vector")
            queries[i] = u
        else:
            queries[i] = queries[first]
        context_of[i] = contexts.setdefault(p.positive_text, len(contexts))
    # Contexts are numbered in order of first use, so np.unique's first
    # indices give the pair each one first appears in.
    first_pair = np.unique(context_of, return_index=True)[1]
    wheres = [f"{label} {first_pair[c] + 1} context {text[:40]!r}" for text, c in contexts.items()]
    # A first pass keeps only each context's token count, so that a second
    # can copy each matrix straight into an exactly sized stack. Matrices held
    # until their stack is built stay resident after they are freed, beside
    # the stacks, and raised the peak memory of a fixture pipeline run.
    lengths = np.array(
        [len(_context_matrix(provider, text, d, where)) for text, where in zip(contexts, wheres)],
        dtype=np.intp,
    )

    def matrices():
        for text, where, length in zip(contexts, wheres, lengths):
            h = _context_matrix(provider, text, d, where)
            if len(h) != length:
                raise DataError(f"{where}: {len(h)} token vectors, {length} on an earlier call")
            yield h

    stacks, rows = _stack_by_length(lengths, matrices(), d)
    return _PairSet(queries, lengths[context_of], rows[context_of], stacks)


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
    losses land in the returned model's provenance. A query vector or token
    matrix of the wrong shape, or holding NaN or inf, raises DataError naming
    the pair before any step runs. A non-finite batch loss, or non-finite
    parameters at the end of an epoch, raise StageError naming the epoch
    (counted across both phases) and the step.
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
            per_set = [_epoch_batches(rng, len(s), config.batch_size) for s in sets]
            # Round-robin interleave; a lone set degenerates to its own order.
            longest = max((len(b) for b in per_set), default=0)
            for i in range(longest):
                for set_idx, set_batches in enumerate(per_set):
                    if i < len(set_batches):
                        batches.append((set_idx, set_batches[i]))
            epoch = len(losses) + 1
            epoch_losses = []
            for step, (set_idx, idx) in enumerate(batches, start=1):
                loss, g_M, g_P = _loss_and_grads(M, P, *sets[set_idx].batch(idx))
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

    main_set = _pack_pairs(pairs, provider, model.d, "pair")
    if pretrain_pairs:
        pre_set = _pack_pairs(pretrain_pairs, provider, model.d, "pretraining pair")
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
    U, groups = _pack_pairs(batch, provider, model.d, "pair").batch(np.arange(len(batch)))
    M = model.codes.matrix.copy()
    P = model.projection.copy()
    _, g_M, g_P = _loss_and_grads(M, P, U, groups)
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
            up = _loss(M, P, U, groups)
            flat[i] = saved - epsilon
            down = _loss(M, P, U, groups)
            flat[i] = saved
            numeric[i] = (up - down) / (2.0 * epsilon)
        a = analytic[name].reshape(-1)
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
        errors[name] = float(np.max(np.abs(a - numeric) / denom))
    return errors
