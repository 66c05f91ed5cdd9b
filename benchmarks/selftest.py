"""Self-test of the benchmark on tiny corpora (about half a minute).

    python3 benchmarks/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, untraced and traced, on every workload; that a deliberately
corrupted feature row makes the correctness check fail; and that
``run.py`` refuses to run, printing no result, without the sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
from gkconv import experiment, model  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

OUT = ROOT / ".bench_out" / "selftest"


def check_metrics(spec, tally, what):
    for m in spec:
        got = tally.metrics.get(m["name"])
        assert got is not None, f"{what}: {m['name']} not emitted"
        assert got["unit"] == m["unit"], \
            f"{what}: {m['name']} in {got['unit']}, expected {m['unit']}"
        assert isinstance(got["value"], (int, float)) \
            and math.isfinite(got["value"]), f"{what}: {m['name']} = {got}"
    extra = set(tally.metrics) - {m["name"] for m in spec}
    assert not extra, f"{what}: metrics not in BENCHMARK.json: {extra}"
    assert tally.failed == 0 and tally.attempted > 0, \
        f"{what}: {tally.failed}/{tally.attempted} failed: {tally.info}"


def test_metrics(bench):
    for w in WORKLOADS.values():
        for trace in (False, True):
            tally = harness.run_workload(w, 3, 0.0, trace, OUT, scale=0.01,
                                         epochs=2, min_batches=2)
            spec = bench["per_layer" if trace else "end_to_end"]
            check_metrics(spec, tally, f"{w.name} trace={int(trace)}")
            if not trace:
                for m in spec:
                    assert tally.metrics[m["name"]]["value"] > 0, m["name"]
        print(f"ok   {w.name}: every metric emitted with its unit")


def test_corrupted_row_fails():
    for w in WORKLOADS.values():
        ds, split, net, cfg = make_inputs(w, 5, scale=0.01, epochs=1)
        params, _ = experiment.train(ds, split, net, cfg)
        sample = ds.graphs[:4]
        feats = model.ForwardEngine(net).forward_graphs(params,
                                                        sample).features
        assert checks.feature_mismatches(net, params, sample, feats) == 0
        bad = [f.copy() for f in feats]
        bad[2][1, 0] = np.nextafter(bad[2][1, 0], 2.0)
        assert checks.feature_mismatches(net, params, sample, bad) == 1
        print(f"ok   {w.name}: a corrupted feature row fails the check")


def test_refuses_without_sources():
    OUT.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=OUT))
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        p = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "ring6_l1",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert p.returncode != 0 and "correct" not in p.stdout, p.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   run.py exits non-zero without a result when src/ is absent")


if __name__ == "__main__":
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_corrupted_row_fails()
    test_refuses_without_sources()
    test_metrics(bench)
    print("selftest passed")
