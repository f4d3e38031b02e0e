"""Correctness checks the benchmark applies to the program's outputs.

The oracles are written here from the documented contracts. They take only
the package's tokenizer and embedding provider, which define the inputs to
scoring, and never call the search code: dense top-k comes from a double loop
over the codes stored in the `.pdix` file, and BM25 top-k from scores
recomputed from raw segment token counts. Every operation and check goes
through a Ledger, whose failed count becomes the run's `failed`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from collections import Counter

import numpy as np

from bioir.corpus import tokenize


class Ledger:
    """Counts attempted and failed operations; a failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # one failed operation must not stop the run
            self.failed += 1
            self.errors.append(f"{label}: {exc!r}")
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {label} failed {detail}".rstrip())
        return ok


def tree_digests(root: str) -> dict[str, str]:
    """sha256 of every file under root, keyed by path relative to root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def _read_container(path: str, magic: bytes) -> tuple[dict, np.ndarray]:
    # Layout documented in the README: magic, <II (version, header length),
    # canonical JSON header, little-endian float64 payload.
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != magic:
        raise ValueError(f"{path}: not a {magic.decode()} container")
    _, header_len = struct.unpack("<II", raw[4:12])
    header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    return header, np.frombuffer(raw[12 + header_len :], dtype="<f8").astype(np.float64)


class DenseOracle:
    """Max-over-codes scan, one np.dot per (entry, code), read from the files."""

    def __init__(self, index_path: str, model_path: str, base_provider):
        header, payload = _read_container(index_path, b"PDIX")
        self.refs = header["segment_refs"]
        self.codes = payload.reshape(header["count"], header["k"], header["d"])
        model, params = _read_container(model_path, b"PDMO")
        k, d = model["k"], model["d"]
        self.projection = params[k * d :].reshape(d, d)
        self.base = base_provider

    def top_k(self, query: str, k: int) -> list[tuple[str, float]]:
        v_q = self.projection @ self.base.query_vector(query)
        scored = []
        for ref, vectors in zip(self.refs, self.codes):
            best = None
            for row in vectors:
                s = float(np.dot(row, v_q))
                if best is None or s > best:
                    best = s
            scored.append((ref, best))
        scored.sort(key=lambda h: (-h[1], h[0]))
        return scored[:k]


class BM25Oracle:
    """BM25 (Lucene idf, deduplicated sorted query terms) from raw token counts."""

    def __init__(self, segments_path: str, k1: float, b: float):
        self.k1, self.b = k1, b
        self.tf: dict[str, Counter] = {}
        with open(segments_path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    seg = json.loads(line)
                    self.tf[seg["segment_id"]] = Counter(tokenize(seg["text"]))
        self.length = {ref: sum(c.values()) for ref, c in self.tf.items()}
        self.n = len(self.tf)
        self.avg = sum(self.length.values()) / self.n
        self.df = Counter(t for c in self.tf.values() for t in c)

    def top_k(self, query: str, k: int) -> list[tuple[str, float]]:
        terms = sorted(set(tokenize(query)))
        scored = []
        for ref, counts in self.tf.items():
            score = 0.0
            for t in terms:
                tf = counts.get(t, 0)
                if not tf:
                    continue
                idf = math.log(1.0 + (self.n - self.df[t] + 0.5) / (self.df[t] + 0.5))
                norm = tf + self.k1 * (1.0 - self.b + self.b * self.length[ref] / self.avg)
                score += idf * tf * (self.k1 + 1.0) / norm
            if score > 0.0:
                scored.append((ref, score))
        scored.sort(key=lambda h: (-h[1], h[0]))
        return scored[:k]


def same_dense(got, want) -> bool:
    """Dense search is bit-exact against the double loop (acceptance criterion 1)."""
    return list(got) == list(want)


def same_bm25(got, want, rel: float = 1e-9) -> bool:
    """Same refs in the same order, scores within a relative tolerance."""
    return len(got) == len(want) and all(
        gr == wr and abs(gs - ws) <= rel * max(1.0, abs(ws))
        for (gr, gs), (wr, ws) in zip(got, want)
    )


def plant_wrong_score(hits):
    """A copy of hits with the top score moved by one ulp."""
    planted = list(hits)
    ref, score = planted[0]
    planted[0] = (ref, float(np.nextafter(score, math.inf)))
    return planted


def plant_wrong_hit(hits, all_refs):
    """A copy of hits whose last ref is replaced by a segment outside the top-k."""
    present = {ref for ref, _ in hits}
    outsider = next(ref for ref in all_refs if ref not in present)
    planted = list(hits)
    planted[-1] = (outsider, planted[-1][1])
    return planted
