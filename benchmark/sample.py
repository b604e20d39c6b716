"""One benchmark sample, run in a fresh process by ``run.py``.

    python3 benchmark/sample.py --workload NAME --seed N --trace 0|1 --cpu N --result PATH [--setup-only]

Set-up is the import of ``leibniz_homology`` plus building the workload's
algebras; the timed work follows in the same process.  The sample writes its
timings, observations and (traced) layer metrics as JSON to ``--result``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    import leibniz_homology as lh

    t_import = time.perf_counter()
    src = os.path.realpath(os.environ["BENCH_SRC"])
    if not os.path.realpath(lh.__file__).startswith(src + os.sep):
        raise SystemExit(f"leibniz_homology imported from {lh.__file__}, not from {src}")

    import tracing
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        t_import = time.perf_counter()
    out: dict = {}
    with tracer or contextlib.nullcontext():
        for p, q in workloads.signatures(spec):
            sig = lh.Signature(p, q)
            lh.build_affine(sig)
            lh.build_so(sig)
        t_setup = time.perf_counter()
        out.update(setup_s=t_setup - T0, build_s=t_setup - t_import)
        if not args.setup_only:
            obs = workloads.run(spec, args.seed, os.path.dirname(args.result))
            out.update(wall_s=time.perf_counter() - t_setup, obs=obs, digest=workloads.digest(obs))
    if tracer is not None:
        try:
            out["layers"] = tracer.layer_metrics()
        except ValueError as exc:
            out["trace_error"] = str(exc)
        tracer.write_jsonl(os.path.join(os.path.dirname(args.result), f"trace-{args.workload}.jsonl"))

    import numpy
    from leibniz_homology import _fastrank

    out["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": _fastrank.HAVE_NUMBA,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
