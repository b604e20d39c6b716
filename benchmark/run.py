"""Benchmark entry point: time one workload of leibniz-homology end to end.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every sample is a fresh process (``sample.py``), because users
pay the import and the per-process algebra caches on every CLI call.
Samples run one after another, each single-threaded (BLAS pinned to one
thread), until ``--seconds`` have passed; at least one always runs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``wall_norm_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` traced
and untraced samples alternate and it reports the per-layer metrics.  Each
timed sample shares its core with ``probe.py``, whose bursts give the core's
speed that ``wall_norm_s`` corrects for; ``setup_s`` is corrected by an
import-only reference process run after each set-up-only sample.  Every
sample's outputs are checked against ``expected.json``; ``attempted`` and
``failed`` count the checked items.  Scratch files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up is short and noisy, so each timed run adds this many set-up-only
# processes, each followed by the reference process, and reports the median
SETUP_RUNS = 8
# every sample and its speed probe share this core
CPU = max(os.sched_getaffinity(0))
# the probe's median burst on an otherwise idle core of the reference machine
# (2-vCPU Xeon, Python 3.11.7: 0.40-0.42 ms); wall_norm_s is wall_s at that speed
REFERENCE_BURST_S = 0.0004
# the package's code slows more than the probe's L1-resident loop when the
# host does: over the samples of 20 runs per workload, log wall_s rose 1.2 to
# 1.6 times as fast as log burst (r = 0.85 to 0.96)
PROBE_EXPONENT = 1.5
# set-up is mostly imports, which a slower host slows differently from the
# probe's loop; setup_s is normalised by this import-only process instead
REFERENCE = "import numpy, json, argparse, fractions"
# the reference process's median wall time on the reference machine;
# setup_s is the set-up time at that speed
REFERENCE_S = 0.22
# a run must end within 180 s; no sample starts that would likely cross this
DEADLINE_S = 165


class SampleError(RuntimeError):
    pass


def wall_norm(sample: dict) -> float:
    """A sample's ``wall_s`` at the reference core speed."""
    return sample["wall_s"] * (REFERENCE_BURST_S / sample["burst_s"]) ** PROBE_EXPONENT


def setup_norm(setup: dict) -> float:
    """A set-up-only sample's set-up time at the reference machine's speed."""
    return setup["setup_s"] * REFERENCE_S / setup["reference_s"]


def _env() -> dict:
    """The caller's environment without the package's option overrides, BLAS on one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LEIBNIZ_HOMOLOGY_")}
    return dict(env, PYTHONPATH=str(SRC), BENCH_SRC=str(SRC), PYTHONHASHSEED="0",
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _reference(deadline: float) -> float:
    """Wall time of the import-only reference process on the samples' core."""
    code = f"import os; os.sched_setaffinity(0, {{{CPU}}}); {REFERENCE}"
    t = time.perf_counter()
    try:
        subprocess.run([sys.executable, "-c", code], env=_env(), check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.SubprocessError as exc:
        raise SampleError(f"the reference process failed: {exc}") from exc
    return time.perf_counter() - t


def _known_digest(workload: str, seed: int, digest: str) -> str:
    """The digest of the first run of this workload and seed on the same source.

    Kept in ``.bench_out/``; the first run saves its own digest.
    """
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.read_bytes())
    path = OUT / f"digest-{workload}-seed{seed}-{h.hexdigest()[:16]}.txt"
    if not path.exists():
        path.write_text(digest)
    return path.read_text()


def _sample(workload: str, seed: int, trace: int, deadline: float, setup_only: bool = False) -> dict:
    """Run one sample; a timed one gets the speed probe on its core."""
    result, probed = OUT / f"sample-{workload}.json", OUT / f"probe-{workload}.json"
    for path in (result, probed):
        if path.exists():
            path.unlink()
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--cpu", str(CPU), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    probe = None
    if not setup_only:
        probe = subprocess.Popen([sys.executable, str(HERE / "probe.py"), "--cpu", str(CPU),
                                  "--result", str(probed)])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample of {workload} passed the run deadline") from exc
    finally:
        if probe is not None:
            probe.terminate()
            probe.wait()
    if proc.returncode != 0:
        raise SampleError(f"sample of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result) as fh:
        out = json.load(fh)
    if probe is not None:
        try:
            with open(probed) as fh:
                speed = json.load(fh)
        except FileNotFoundError:
            speed = {"bursts_ns": []}
        if not speed["bursts_ns"]:
            raise SampleError("the speed probe recorded no bursts")
        out["burst_s"] = statistics.mean(speed["bursts_ns"]) / 1e9
        out["env"]["maxrss_kb"] += speed["maxrss_kb"]
    return out


def run(workload: str, seed: int, seconds: float, trace: int, expected: dict) -> tuple[dict, dict]:
    """One benchmark run: (result line, raw samples)."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    # unmeasured: compiles bytecode and fails fast on a broken checkout
    _sample(workload, seed, 0, deadline, setup_only=True)
    setups = []
    for _ in range(0 if trace else SETUP_RUNS):
        setup_s = _sample(workload, seed, 0, deadline, True)["setup_s"]
        setups.append({"setup_s": setup_s, "reference_s": _reference(deadline)})

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        plain.append(_sample(workload, seed, 0, deadline))
        if trace:
            traced.append(_sample(workload, seed, 1, deadline))
        now = time.monotonic()
        if now - start >= seconds or now + 1.5 * (now - t) > deadline:
            break

    spec = workloads.WORKLOADS[workload]
    items: list[tuple[str, bool]] = []
    for s in plain + traced:
        items += workloads.check(spec, s["obs"], expected)
    known = _known_digest(workload, seed, plain[0]["digest"])
    items += [("digest", s["digest"] == known) for s in plain + traced]
    items += [("trace.layer_sum", "layers" in s) for s in traced]
    failed = [name for name, ok in items if not ok]

    if trace:
        layered = [s["layers"] for s in traced if "layers" in s]
        if not layered:
            raise SampleError("no traced sample produced layer metrics: " + traced[0]["trace_error"])
        metrics = {m: {"value": statistics.median(x[m] for x in layered), "unit": unit}
                   for m, unit in tracing.LAYER_METRICS.items()}
        overhead = statistics.median(x["trace.wall_s"] for x in layered) - statistics.median(
            s["build_s"] + s["wall_s"] for s in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        # one sample (with its probe) runs at a time, so the peak is ours
        # plus the largest sample's
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + max(
            s["env"]["maxrss_kb"] for s in plain)
        metrics = {
            "wall_norm_s": {"value": statistics.median(map(wall_norm, plain)), "unit": "s"},
            "setup_s": {"value": statistics.median(map(setup_norm, setups)), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    result = {"correct": not failed, "attempted": len(items), "failed": len(failed), "metrics": metrics}
    raw = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": {"nproc": os.cpu_count(), **plain[0]["env"]},
        "setup": setups,
        "plain": [{k: s[k] for k in ("setup_s", "build_s", "wall_s", "burst_s")} for s in plain],
        "traced": [s.get("layers") for s in traced],
        "failed_items": failed,
        "result": result,
    }
    with open(OUT / f"run-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(raw, fh, indent=1)
    return result, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=str(HERE / "expected.json"),
                    help="expected results (the self-test passes a corrupted copy)")
    args = ap.parse_args(argv)

    if not (SRC / "leibniz_homology" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    with open(args.expected) as fh:
        expected = json.load(fh)
    try:
        result, raw = run(args.workload, args.seed, args.seconds, args.trace, expected)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = raw["env"]
    print(f"# env nproc={env['nproc']} python={platform.python_version()} numpy={env['numpy']} "
          f"numba={env['numba']}")
    print(f"# samples plain={len(raw['plain'])} traced={len(raw['traced'])} "
          f"setup={len(raw['setup'])}")
    walls = [s["wall_s"] for s in raw["plain"]]
    print(f"# wall_s median={statistics.median(walls)} n={len(walls)} (unnormalised)")
    if raw["setup"]:
        print(f"# setup_s median={statistics.median(s['setup_s'] for s in raw['setup'])} "
              f"n={len(raw['setup'])} (unnormalised)")
    if raw["failed_items"]:
        print("# failed: " + ", ".join(raw["failed_items"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
