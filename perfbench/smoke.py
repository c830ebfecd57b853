"""Smoke test of the benchmark: every workload at tiny sizes, in about a minute.

    python3 perfbench/smoke.py

For each workload it runs one untraced iteration and two traced ones of the
same seed, and fails (exit code 1) unless

* the counters that must repeat exactly (EXACT below) are equal in both
  traced runs,
* the traced result equals the untraced one bit for bit, so tracing does not
  change what the library computes,
* the end-to-end and per-layer runs report every metric BENCHMARK.json lists,
* ``layer_map.json`` names only workloads and metrics that BENCHMARK.json lists,

besides every correctness check of the workloads themselves.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

EXACT = (
    "optimizer.steps",
    "kernels.gram_matrix.calls",
    "kernels.gram_matrix.distinct_ratio",
    "kernels.gram.subnormal_frac",
    "optimizer.matvec_bytes",
)
SEED = 3


def check_layer_map(spec) -> list[str]:
    with open(HERE / "layer_map.json", encoding="utf-8") as fh:
        layer_map = json.load(fh)
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    if set(layer_map["workloads"]) != workloads:
        problems.append("layer_map.json workloads differ from BENCHMARK.json")
    for row in layer_map["layer_to_e2e"]:
        for name in row["layer_metrics"]:
            if name not in per_layer:
                problems.append(f"layer_map.json: {name} is not a per_layer metric")
        for name in row["moves"]:
            if name not in e2e:
                problems.append(f"layer_map.json: {name} is not an end_to_end metric")
        for name in row["on"] + row["no_change_on"]:
            if name not in workloads:
                problems.append(f"layer_map.json: {name} is not a workload")
    return problems


def main() -> int:
    run.load_library()
    spec = run._benchmark_spec()
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    problems = check_layer_map(spec)
    workdir = run.WORK / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    run.warm_up()
    for name, cls in run.WORKLOADS.items():
        workload = cls(SEED, tiny=True)
        workload.setup(workdir)
        e2e, outcomes, found = run.measure(workload, 0.0)
        problems += found
        missing = set(e2e_names) - set(e2e) - {"setup_s"}
        if missing:
            problems.append(f"{name}: end-to-end metrics not reported: {sorted(missing)}")
        runs = []
        for _ in range(2):
            plain, traced, tracer, found = run.run_untraced_and_traced(workload)
            problems += found
            runs.append(layers.metrics(tracer, plain, traced))
        first, second = runs
        missing = set(layer_names) - set(first)
        if missing:
            problems.append(f"{name}: per-layer metrics not reported: {sorted(missing)}")
        for key in EXACT:
            if first.get(key) != second.get(key):
                problems.append(f"{name}: {key} differs between traced runs: {first.get(key)} vs {second.get(key)}")
        print(f"{name}: quality {outcomes[0].quality!r}, " + ", ".join(f"{k}={first.get(k)!r}" for k in EXACT))
    for problem in problems:
        print(f"SMOKE FAILED: {problem}", file=sys.stderr)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
