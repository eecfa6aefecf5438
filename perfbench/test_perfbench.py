"""Tests of the benchmark itself: input determinism, trace transparency and
metric coverage. Run with ``python -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import json
import sqlite3
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = {
    "serve_bird": {"questions": 20, "corpus": 12},
    "schools": {"questions": 40, "corpus": 30, "rows": 300, "build_corpus": 60},
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs_other_seed_different(workload, tmp_path):
    a = wl.inputs_digest(wl.make_inputs(workload, 7, tmp_path / "a", SMALL[workload]))
    b = wl.inputs_digest(wl.make_inputs(workload, 7, tmp_path / "b", SMALL[workload]))
    c = wl.inputs_digest(wl.make_inputs(workload, 8, tmp_path / "c", SMALL[workload]))
    assert a == b
    assert a != c


def test_traced_run_keeps_outputs_and_reports_every_metric():
    units = run.load_units()
    plain_report, plain = run.run_workload("schools", 3, 0.0, False, units, SMALL["schools"])
    traced_report, traced = run.run_workload("schools", 3, 0.0, True, units, SMALL["schools"])

    assert plain["correct"], plain_report["check_failures"]
    assert traced["correct"], traced_report["check_failures"]
    assert traced_report["outputs_digest"] == plain_report["outputs_digest"]

    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["end_to_end"]:
        assert plain["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert plain["metrics"][metric["name"]]["value"] > 0
    assert plain["attempted"] >= 1
    # the hostile questions are scored on every run, and counted apart
    assert plain_report["hostile"]["attempted"] == (
        gen.HOSTILE_QUESTIONS * (1 + gen.CANDIDATES_PER_QUESTION))


def test_every_seed_serves_the_same_candidate_kinds(tmp_path):
    a = wl.make_inputs("schools", 1, tmp_path / "a", SMALL["schools"])
    b = wl.make_inputs("schools", 2, tmp_path / "b", SMALL["schools"])
    assert [q.kinds for q in a.questions] == [q.kinds for q in b.questions]
    assert not any({"delete", "overflow"} & set(q.kinds) for q in a.questions)
    assert all({"delete", "overflow"} & set(q.kinds) for q in a.hostile)


def test_hostile_candidates_are_scored_and_their_writes_rolled_back(tmp_path):
    inputs = wl.make_inputs("schools", 3, tmp_path / "in", SMALL["schools"])
    served = wl.setup_serve(inputs, tmp_path)[0]
    served.conn = sqlite3.connect(str(inputs.db_path))
    defects = wl.Ledger()
    try:
        wl.score_hostile(served, inputs.hostile, defects)
    finally:
        served.conn.close()
    assert defects.attempted == len(inputs.hostile) * (1 + gen.CANDIDATES_PER_QUESTION)
    conn = sqlite3.connect(str(inputs.db_path))
    try:
        for table in ("schools", "frpm", "satscores"):
            assert conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0] == 300
    finally:
        conn.close()
