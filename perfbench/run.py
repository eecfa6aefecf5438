"""sqlknow benchmark.

    python3 perfbench/run.py --workload serve_bird --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Without ``--workload`` every workload runs in turn, each in a process of its
own, so that its peak memory and heap are its own. Each workload prints a
report line (outputs digest, error rate and failure kinds, the hostile
questions' failures, sample counts, check failures, machine facts) and then,
as its last line, the result: ``{"correct", "attempted", "failed",
"metrics"}``, whose counts cover the served operations only. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same fixed work untraced and then
traced, and reports the per-layer metrics and the tracing overhead. Scratch
files go to ``.perfbench/`` in the checkout; spans of a traced run are
written to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from gen import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"


def machine_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 units: dict[str, str], sizes: dict | None = None) -> tuple[dict, dict]:
    """One workload run; ``sizes`` shrinks the generated inputs (tests only)."""
    import spans
    import workloads as wl

    work = wl.fresh_workdir(SCRATCH, workload, seed)
    # SQLite may spill sorts to a temporary directory; keep it in the checkout
    saved_env = {k: os.environ.get(k) for k in ("SQLITE_TMPDIR", "TMPDIR")}
    os.environ["SQLITE_TMPDIR"] = os.environ["TMPDIR"] = str(work)
    try:
        inputs = wl.make_inputs(workload, seed, work / "inputs", sizes)
        ledger, defects = wl.Ledger(), wl.Ledger()
        if not trace:
            res = wl.run_pass(workload, inputs, work, seconds, ledger, defects)
            metrics = wl.end_to_end(res)
            errors = res.errors
        else:
            n = wl.DIGEST_QUESTIONS
            plain = wl.run_pass(workload, inputs, work, seconds, wl.Ledger(), wl.Ledger(),
                                setups=1, exact=n, overhead_pairs=wl.OVERHEAD_PAIRS)
            recorder = spans.Recorder()
            recorder.install()
            try:
                res = wl.run_pass(workload, inputs, work, seconds, ledger, defects, setups=1,
                                  recorder=recorder, exact=n)
            finally:
                recorder.uninstall()
            recorder.write(SCRATCH / "traces" / f"{workload}-seed{seed}.jsonl")
            layer = spans.layer_metrics(recorder.spans)
            layer["trace.overhead_ratio"] = plain.overhead_ratio
            layer["bench.error_rate"] = _error_rate(ledger, defects)
            metrics = layer
            errors = plain.errors + res.errors
            if plain.digest != res.digest:
                errors.append("traced run changed the outputs digest")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    report = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "outputs_digest": res.digest,
        # over the served operations and the hostile questions together
        "error_rate": _error_rate(ledger, defects),
        "failures": ledger.failures,
        "hostile": {"attempted": defects.attempted, "failed": defects.failed,
                    "failures": defects.failures},
        "samples": wl.sample_counts(res),
        # the timings before scaling to the reference speed, and the probe
        "as_measured": wl.timings(res, scale=False),
        "probe_ms": statistics.median(res.probes) * 1e3,
        "check_failures": errors[:20],
        "machine": machine_facts(),
    }
    result = {
        "correct": not errors,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return report, result


def _error_rate(ledger, defects) -> float:
    return (ledger.failed + defects.failed) / max(ledger.attempted + defects.attempted, 1)


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sqlknow benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sqlknow" / "__init__.py").is_file():
        print(f"error: no sqlknow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.workload:
        for workload in WORKLOADS:
            code = subprocess.run([sys.executable, __file__, "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
            if code:
                return code
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    report, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  load_units())
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
