"""The mock pipeline's output bytes, pinned across commits.

``test_acceptance.run_pipeline`` runs every stage once with the mock gateway
and fixed seeds; each of its primary outputs must have the sha256 listed in
``data/golden/pipeline.sha256`` (``sha256sum`` format, one artifact a line).
A change that alters an output on purpose updates that file and says why.
"""

import hashlib
from pathlib import Path

import pytest

from test_acceptance import PRIMARY_OUTPUTS, run_pipeline

GOLDEN = Path(__file__).parent / "data" / "golden" / "pipeline.sha256"


def golden_digests() -> dict[str, str]:
    digests = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        digests[name] = digest
    return digests


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    run_pipeline(base)
    return base


def test_golden_lists_every_primary_output():
    assert list(golden_digests()) == PRIMARY_OUTPUTS


def test_pipeline_outputs_match_the_golden(pipeline_dir):
    golden = golden_digests()
    differ = [
        name for name in PRIMARY_OUTPUTS
        if hashlib.sha256((pipeline_dir / name).read_bytes()).hexdigest() != golden.get(name)
    ]
    assert not differ, f"outputs differ from {GOLDEN.name}: {', '.join(differ)}"
