"""Run every benchmark workload and print each metric with its spread.

    python3 benchmark/report.py

For each workload of ``BENCHMARK.json`` it makes one untraced and one traced
run of ``run_seconds`` per seed (seeds 1 and 2) and prints one line per
metric: workload, name, unit, sample count, median and quartiles over the
pooled samples, and each workload's ``fail_frac`` over its checked outputs
(``ops``).
"""

from __future__ import annotations

import json
import statistics
import sys

import run as bench
import tracing

SEEDS = (1, 2)


def _row(workload: str, name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return f"{workload:<16} {name:<30} {unit:<6} {len(values):>4} {med:>12.6g} {q1:>12.6g} {q3:>12.6g}"


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((bench.HERE / "expected.json").read_text())

    print(f"{'workload':<16} {'metric':<30} {'unit':<6} {'n':>4} {'median':>12} {'q1':>12} {'q3':>12}")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench.run(workload, seed, spec["run_seconds"], trace, expected)
                for seed in SEEDS for trace in (0, 1)]
        plain = [s for _, raw in runs for s in raw["plain"] if raw["trace"] == 0]
        setups = [s for _, raw in runs for s in raw["setup"]]
        rows = {
            ("wall_s", "s"): [s["wall_s"] for s in plain],
            ("wall_norm_s", "s"): [bench.wall_norm(s) for s in plain],
            ("setup_raw_s", "s"): [s["setup_s"] for s in setups],
            ("setup_s", "s"): [bench.setup_norm(s) for s in setups],
            ("peak_rss_mb", "MB"): [r["metrics"]["peak_rss_mb"]["value"] for r, raw in runs if raw["trace"] == 0],
        }
        layered = [x for _, raw in runs for x in raw["traced"] if x]
        for name, unit in tracing.LAYER_METRICS.items():
            rows[(name, unit)] = [x[name] for x in layered]
        rows[("trace.overhead_s", "s")] = [r["metrics"]["trace.overhead_s"]["value"] for r, raw in runs if raw["trace"]]
        for (name, unit), values in rows.items():
            print(_row(workload, name, unit, values))
        ops = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        print(f"{workload:<16} {'fail_frac':<30} {'ratio':<6} {ops:>4} {failed / ops:>12.6g}   (ops {ops})")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
