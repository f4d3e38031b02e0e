"""Artifact bytes pinned against tests/golden/fixture_digests.json.

The test regenerates the fixture and a hybrid pipeline run and compares every
digest. A change that alters artifact bytes on purpose rewrites the JSON with
tests/golden/update_fixture_digests.py in the same commit.
"""

import importlib.util
import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _digest_module():
    path = os.path.join(GOLDEN_DIR, "update_fixture_digests.py")
    spec = importlib.util.spec_from_file_location("update_fixture_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_and_pipeline_bytes_match_golden(tmp_path):
    golden = _digest_module()
    with open(golden.JSON_PATH, "r", encoding="utf-8") as fh:
        recorded = json.load(fh)
    digests = golden.compute_digests(str(tmp_path))

    want = recorded["digests"]
    problems = [
        f"{name}: recorded {want.get(name, 'absent')}, got {digests.get(name, 'absent')}"
        for name in sorted(set(want) | set(digests))
        if want.get(name) != digests.get(name)
    ]
    if problems and golden.platform_info() != recorded["platform"]:
        problems.append(
            f"note: digests were recorded on {recorded['platform']}, this run is on "
            f"{golden.platform_info()}; float artifacts depend on numpy and BLAS"
        )
    assert not problems, "artifact bytes differ from golden:\n" + "\n".join(problems)
