"""Spans and counters around the package's public entry points.

The traced mode replaces each entry point at the name its callers look up
(a class attribute, or every module attribute of the package bound to the
function) with a wrapper that records one span: name, start, end and the
span that was open when it began.  Spans stay in memory, four integers each,
and are written as JSONL once the run is over.  A layer's self time is the
duration of its spans minus the part their child spans cover; the root span
``run`` has no layer, so its self time is the glue no span covers.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# span name -> per-layer time metric its self time counts towards
LAYER_OF_SPAN = {
    "run": "homology.other_s",
    "complexes.BoundaryBlock.csc": "complexes.colgen_s",
    "complexes.BoundaryBlock.column": "complexes.colgen_s",
    "complexes.check_dd_zero": "complexes.ddcheck_s",
    "complexes.is_boundary": "complexes.witness_s",
    "complexes.is_cycle": "complexes.cycle_s",
    "linalg.SparseModularEliminator.add_column": "linalg.modular_s",
    "linalg.ExactEliminator.add_column": "linalg.exact_s",
    "linalg.solve": "linalg.solve_s",
    "invariants.invariant_subspace": "invariants.kernel_s",
    "liealg.build_affine": "liealg.build_s",
    "liealg.build_so": "liealg.build_s",
}

COUNTERS = (
    "linalg.modular_cols",
    "linalg.modular_pivots",
    "linalg.modular_peak_fill",
    "linalg.exact_cols",
    "linalg.exact_pivots",
    "complexes.colgen_cols",
    "complexes.colgen_nnz",
    "invariants.kernel_cols",
    "liealg.build_calls",
)

# every per-layer metric a traced sample reports, with its unit
LAYER_METRICS = {
    **{m: "s" for m in dict.fromkeys(LAYER_OF_SPAN.values())},
    **{c: "count" for c in COUNTERS},
    "linalg.modular_useful_ratio": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.names = ["run"]
        self.spans = array("q")  # flat (name id, start ns, end ns, parent index)
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span; ``after(args, result)`` updates counters."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((nid, 0, 0, stack[-1]))
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            finally:
                spans[4 * idx + 2] = clock()
                spans[4 * idx + 1] = start
                stack.pop()

        return traced

    def __enter__(self):
        """Open the root span ``run``; it must be the first span recorded."""
        if self.spans:
            raise RuntimeError("the root span must open before any other span")
        self.spans.extend((0, time.perf_counter_ns(), 0, -1))
        self.stack.append(0)
        return self

    def __exit__(self, *exc) -> None:
        self.spans[2] = time.perf_counter_ns()
        self.stack.pop()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counters.

        Raises ``ValueError`` when a span lies outside its parent or the self
        times do not add up to the root span, since the layer split would
        then be wrong.
        """
        s = self.spans
        n = len(s) >> 2
        child = [0] * n
        for i in range(1, n):
            p = s[4 * i + 3]
            start, end = s[4 * i + 1], s[4 * i + 2]
            if p < 0 or start < s[4 * p + 1] or end > s[4 * p + 2] or end < start:
                raise ValueError(f"span {i} ({self.names[s[4 * i]]}) is not nested in its parent")
            child[p] += end - start
        self_ns = dict.fromkeys(LAYER_OF_SPAN.values(), 0)
        for i in range(n):
            layer = LAYER_OF_SPAN[self.names[s[4 * i]]]
            self_ns[layer] += s[4 * i + 2] - s[4 * i + 1] - child[i]
        wall_ns = s[2] - s[1]
        if sum(self_ns.values()) != wall_ns:
            raise ValueError("layer self times do not sum to the traced wall time")
        out: dict[str, float] = {m: v / 1e9 for m, v in self_ns.items()}
        out.update(self.counts)
        cols = self.counts["linalg.modular_cols"]
        out["linalg.modular_useful_ratio"] = self.counts["linalg.modular_pivots"] / cols if cols else 0.0
        out["trace.wall_s"] = wall_ns / 1e9
        return out

    def write_jsonl(self, path) -> None:
        s = self.spans
        with open(path, "w") as fh:
            for i in range(len(s) >> 2):
                fh.write(
                    f'{{"id":{i},"name":"{self.names[s[4 * i]]}","start_ns":{s[4 * i + 1]},'
                    f'"end_ns":{s[4 * i + 2]},"parent":{s[4 * i + 3]}}}\n'
                )


def install(tracer: Tracer) -> None:
    """Wrap the package's public entry points for ``tracer``."""
    from leibniz_homology import complexes, homology, invariants, liealg, linalg

    counts = tracer.counts

    def colgen(args, col):
        counts["complexes.colgen_cols"] += 1
        counts["complexes.colgen_nnz"] += len(col)

    def modular(args, new):
        counts["linalg.modular_cols"] += 1
        counts["linalg.modular_pivots"] += new
        fill = args[0].fill
        if fill > counts["linalg.modular_peak_fill"]:
            counts["linalg.modular_peak_fill"] = fill

    def exact(args, new):
        counts["linalg.exact_cols"] += 1
        counts["linalg.exact_pivots"] += new

    def kernel(args, basis):
        counts["invariants.kernel_cols"] += basis.space.dim

    def build(args, alg):
        counts["liealg.build_calls"] += 1

    for cls, attr, after in (
        (complexes.BoundaryBlock, "csc", None),
        (complexes.BoundaryBlock, "column", colgen),
        (linalg.SparseModularEliminator, "add_column", modular),
        (linalg.ExactEliminator, "add_column", exact),
    ):
        name = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.{attr}"
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))

    for module, attr, after in (
        (linalg, "solve", None),
        (homology, "check_dd_zero", None),
        (complexes, "is_boundary", None),
        (complexes, "is_cycle", None),
        (invariants, "invariant_subspace", kernel),
        (liealg, "build_affine", build),
        (liealg, "build_so", build),
    ):
        orig = getattr(module, attr)
        name = f"{orig.__module__.rsplit('.', 1)[-1]}.{attr}"
        traced = tracer.wrap(name, orig, after)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "") or "").startswith("leibniz_homology") and getattr(mod, attr, None) is orig:
                setattr(mod, attr, traced)
