"""Rewrite fixture_digests.json beside this script.

The JSON pins artifact bytes: the sha256 of the synthetic fixture's five input
files (seed 1, 200 docs) and of every data output of a hybrid pipeline run on
it at 10 epochs. Manifests and report.json embed the workdir path, so they are
left out. tests/test_golden.py regenerates the digests and names each file
that differs; it never rewrites the JSON.

Run from the repository root after a change that alters artifact bytes on
purpose, and commit the JSON with that change:

    PYTHONPATH=src python tests/golden/update_fixture_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile

import numpy as np

from bioir.fixture import make_synthetic_fixture
from bioir.pipeline import PipelineConfig, run_pipeline

FIXTURE_SEED = 1
N_DOCS = 200
EPOCHS = 10
JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixture_digests.json")


def platform_info() -> dict:
    """What the float artifacts depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def compute_digests(root: str) -> dict[str, str]:
    """Write the fixture and run the pipeline under `root`; digest by file name."""
    fx = make_synthetic_fixture(os.path.join(root, "fixture"), seed=FIXTURE_SEED, n_docs=N_DOCS)
    workdir = os.path.join(root, "pipeline")
    run_pipeline(PipelineConfig(
        corpus=fx.corpus, queries=fx.queries, qrels=fx.qrels,
        train_questions=fx.train_questions, lexicon=fx.lexicon,
        workdir=workdir, mode="hybrid", epochs=EPOCHS,
    ))
    paths = [fx.corpus, fx.queries, fx.qrels, fx.train_questions, fx.lexicon]
    paths += [
        os.path.join(workdir, name)
        for name in os.listdir(workdir)
        if name != "report.json" and os.path.isfile(os.path.join(workdir, name))
    ]
    return {os.path.relpath(p, root): _sha256(p) for p in sorted(paths)}


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        digests = compute_digests(root)
    blob = {"platform": platform_info(), "digests": dict(sorted(digests.items()))}
    with open(JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {JSON_PATH}")


if __name__ == "__main__":
    main()
