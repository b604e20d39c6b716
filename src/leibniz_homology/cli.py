"""Command-line front end.

Subcommands: ``algebra`` (construct and validate), ``invariants`` (invariant
subspace of a module descriptor), ``homology`` (Betti table with prediction
comparison), ``verify`` (the structure/claim suites).

Every subcommand takes --json PATH; ``homology`` and ``verify`` also take
--seed and --cap-exact, which no other subcommand reads.  Every Betti number
is exact over Q; a degree past --cap-exact ends the table in a partial
report (exit 3).

Module descriptor mini-grammar for ``invariants --module``:
    wedge:I:k      the k-th wedge power of the translations
    tensor:h:k     the k-th tensor power of the affine algebra
    I*wedge:k      translations ⊗ wedge^k
    so*wedge:k     so(p,q) ⊗ wedge^k
    so             the adjoint module of so(p,q)

Exit codes: 0 all checks passed, 1 check failure, 2 usage error (a --json
path that cannot be written included, found before any computation), 3
resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .homology import DEFAULT_CAP_EXACT, SCHEMA_VERSION, HomologyOptions, cohomology_dims, homology_dims
from .invariants import expected_invariant_dim, invariant_subspace
from .liealg import Signature, build_abelian, build_affine, build_so
from .linalg import CapExceededError
from .repspace import Space, mixed_space, tensor_space, wedge_space

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", metavar="PATH", help="write the machine-readable report to PATH")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for random spot checks and verify's cross-field primes")
    parser.add_argument("--cap-exact", type=int, default=DEFAULT_CAP_EXACT,
                        help="max ranked columns of one degree, and of one witness solve block; "
                             "a degree past it ends the table in a partial report")
    _add_json(parser)


def _signature(args) -> Signature:
    try:
        sig = Signature(args.p, args.q)
    except ValueError as exc:
        raise UsageError(str(exc))
    if sig.n < 2:
        raise UsageError(f"signature {sig} needs p + q >= 2")
    return sig


class UsageError(Exception):
    pass


def _options(args) -> HomologyOptions:
    try:
        return HomologyOptions(cap_exact=args.cap_exact, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc))


def _check_json_path(path: Optional[str]) -> None:
    """A ``--json`` path that cannot be written is a usage error, found
    before any computation; the report itself is written at the end."""
    if path is None:
        return
    if not path:
        raise UsageError("cannot write the --json report: the path is empty")
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        why = "it is a directory"
    elif not os.path.isdir(parent):
        why = f"no directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        why = "permission denied"
    else:
        return
    raise UsageError(f"cannot write the --json report to {path}: {why}")


def _emit(args, payload: dict) -> None:
    if args.json:
        data = json.dumps(payload, indent=2, sort_keys=False) + "\n"
        with open(args.json, "w") as fh:
            fh.write(data)


# ---------------------------------------------------------------------------


def cmd_algebra(args) -> int:
    # ``verify`` is loaded only by the subcommands that run it, so the
    # others do not compile it
    from .verify import validate

    sig = _signature(args)
    so = build_so(sig)
    h = build_affine(sig)
    rep_so, rep_h = validate(so), validate(h)
    print(f"signature {sig}: dim so = {so.dim}, dim affine = {h.dim}")
    print("basis:", " ".join(str(lab) for lab in h.labels))
    print(f"validation: so {'pass' if rep_so.ok else 'FAIL'}, affine {'pass' if rep_h.ok else 'FAIL'}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "algebra",
        "signature": {"p": sig.p, "q": sig.q},
        "environment": {},
        "results": [
            {
                "dim_so": so.dim,
                "dim_affine": h.dim,
                "labels": [str(lab) for lab in h.labels],
                "validation": {"so": rep_so.ok, "affine": rep_h.ok},
                "structure": [
                    {"a": str(h.labels[a]), "b": str(h.labels[b]),
                     "bracket": {str(h.labels[c]): int(v) for c, v in sorted(vec.items())}}
                    for (a, b), vec in sorted(h.structure.items())
                    if a < b
                ],
            }
        ],
    }
    _emit(args, payload)
    return EXIT_OK if rep_so.ok and rep_h.ok else EXIT_CHECK_FAILED


def _parse_module(desc: str, sig: Signature) -> tuple[Space, Optional[int], str]:
    """Descriptor -> (space, expected dimension or None, note on the value);
    every field must be read, so a trailing field is a usage error."""
    h = build_affine(sig)
    n = sig.n
    name, *fields = desc.split(":")
    try:
        if name == "wedge" and len(fields) == 2 and fields[0] == "I":
            k = int(fields[1])
            return wedge_space(h, k), expected_invariant_dim("wedge", n, k), ""
        if name == "tensor" and len(fields) == 2 and fields[0] == "h":
            return tensor_space(h, int(fields[1])), None, ""
        if name in ("I*wedge", "so*wedge") and len(fields) == 1:
            k = int(fields[0])
            lead = h.translation_indices if name == "I*wedge" else h.so_indices
            expected = expected_invariant_dim(name, n, k)
            note = ""
            if expected is None:  # the two ends coincide: so ⊗ Λ^2 at n = 4, I ⊗ Λ^1 at n = 2
                note = f" (expected 2 by direct computation; the k={k} / k=n-{k} statements coincide here)"
            return mixed_space(h, k, lead=lead), expected, note
        if name == "so" and not fields:
            expected = expected_invariant_dim("so", n)
            note = "" if expected is not None else " (recorded: so is 1-dimensional and abelian at n = 2)"
            return tensor_space(h, 1, factors=h.so_indices), expected, note
    except ValueError:
        pass
    raise UsageError(
        f"cannot parse module descriptor {desc!r} "
        "(expected wedge:I:k, tensor:h:k, I*wedge:k, so*wedge:k or so)"
    )


def cmd_invariants(args) -> int:
    sig = _signature(args)
    space, expected, flag = _parse_module(args.module, sig)
    so = build_so(sig)
    basis = invariant_subspace(so, space)
    if expected is not None:
        flag = f" (expected {expected}: {'match' if basis.dim == expected else 'MISMATCH'})"
    print(f"invariants of {args.module} under so{sig}: dim {basis.dim}{flag}")
    for chain in basis.basis:
        print("  ", chain)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "invariants",
        "signature": {"p": sig.p, "q": sig.q},
        "environment": {},
        "results": [
            {
                "module": args.module,
                "dim": basis.dim,
                "expected": expected,
                "basis": [
                    [
                        {
                            "word": chain.word_str(w),
                            "numerator": c.numerator,
                            "denominator": c.denominator,
                        }
                        for w, c in chain.terms()
                    ]
                    for chain in basis.basis
                ],
            }
        ],
    }
    _emit(args, payload)
    if expected is not None and basis.dim != expected:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_homology(args) -> int:
    if args.abelian is not None:
        if args.p is not None or args.q is not None:
            raise UsageError("--abelian excludes --p/--q")
        if args.abelian < 1:
            raise UsageError(f"--abelian needs N >= 1, got {args.abelian}")
        algebra = build_abelian(args.abelian)
        default_deg = 3
    else:
        if args.p is None or args.q is None:
            raise UsageError("need --p and --q (or --abelian N)")
        sig = _signature(args)
        algebra = build_affine(sig)
        default_deg = 5 if sig.n == 4 else 4
    max_degree = args.max_degree if args.max_degree is not None else default_deg
    if max_degree < 0:
        raise UsageError(f"--max-degree must be at least 0, got {max_degree}")
    report = homology_dims(algebra, max_degree, options=_options(args))
    print(report.table())
    dual = cohomology_dims(report)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "homology",
        "signature": {"p": args.p, "q": args.q} if args.abelian is None else {"abelian": args.abelian},
        "environment": report.environment,
        "results": [report.to_json_dict(), dual.to_json_dict()],
    }
    _emit(args, payload)
    if report.capped_at is not None:
        print(f"partial report: {report.cap_message}", file=sys.stderr)
        return EXIT_CAP
    if report.matches is not None and not all(report.matches):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    sig = _signature(args)
    opts = _options(args)
    try:
        report = run_suite(args.suite, sig, opts)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(report.table())
    _emit(args, report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibniz-homology",
        description="Exact workbench for the Leibniz homology of affine indefinite orthogonal Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="construct and validate the algebras of a signature")
    p_alg.add_argument("--p", type=int, required=True)
    p_alg.add_argument("--q", type=int, required=True)
    _add_json(p_alg)
    p_alg.set_defaults(func=cmd_algebra)

    p_inv = sub.add_parser("invariants", help="invariant subspace of a module descriptor")
    p_inv.add_argument("--p", type=int, required=True)
    p_inv.add_argument("--q", type=int, required=True)
    p_inv.add_argument("--module", required=True,
                       help="wedge:I:k | tensor:h:k | I*wedge:k | so*wedge:k | so")
    _add_json(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_hom = sub.add_parser("homology", help="Betti table of the Loday complex")
    p_hom.add_argument("--p", type=int)
    p_hom.add_argument("--q", type=int)
    p_hom.add_argument("--abelian", type=int, metavar="N",
                       help="use the N-dimensional abelian algebra instead of --p/--q")
    p_hom.add_argument("--max-degree", type=int, default=None)
    _add_run_options(p_hom)
    p_hom.set_defaults(func=cmd_homology)

    p_ver = sub.add_parser("verify", help="run the structure / claim verification suites")
    p_ver.add_argument("--suite", choices=("structure", "paper", "all"), default="all")
    p_ver.add_argument("--p", type=int, required=True)
    p_ver.add_argument("--q", type=int, required=True)
    _add_run_options(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_json_path(args.json)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
