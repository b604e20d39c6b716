"""Self-test of the benchmark itself, on the tiny ``smoke`` workload.

    python3 benchmark/selftest.py

Checks that an untraced run passes and reports every end-to-end metric of
BENCHMARK.json, that a corrupted expected value makes ``failed`` (and so
fail_frac) positive, that a traced run reports every per-layer metric, and
that a directory holding only the benchmark's files fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


def result_of(args: tuple[str, ...]) -> dict:
    code, lines = bench(*args)
    if code != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        raise AssertionError(f"malformed result line: {lines[-1]}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    plain = result_of(("--trace", "0"))
    expect(plain["correct"] and plain["failed"] == 0, "smoke run passes every check")
    want = {m["name"] for m in spec["end_to_end"]}
    expect(set(plain["metrics"]) == want, f"untraced run reports exactly {sorted(want)}")

    corrupted = json.loads((HERE / "expected.json").read_text())
    corrupted["betti"]["h(2,2)"][0] = 2
    bad = SCRATCH / "expected-corrupted.json"
    bad.write_text(json.dumps(corrupted))
    broken = result_of(("--trace", "0", "--expected", str(bad)))
    expect(not broken["correct"] and broken["failed"] / broken["attempted"] > 0,
           "a corrupted expected value gives fail_frac > 0")

    traced = result_of(("--trace", "1"))
    want = {m["name"] for m in spec["per_layer"]}
    expect(traced["correct"] and set(traced["metrics"]) == want,
           f"traced run reports all {len(want)} per-layer metrics")

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench("--trace", "0", cwd=bare)
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           "a directory without the package fails with no result")

    print("selftest " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
