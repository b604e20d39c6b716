"""Betti numbers of the Loday and CE complexes, with certification metadata.

Betti numbers come from rank-nullity on the boundary matrices:

    betti_k = dim(degree k) - rank d_k - rank d_{k+1}.

Ranks are exact (streaming elimination over Q) for degrees whose column count
is within the exact cap, and two-prime modular above it; the two primes must
agree or the disagreement is reported as an error rather than guessed away.
Every run spot-checks d∘d = 0 on random chains at every degree and aborts on
failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .complexes import CEBoundary, LodayBoundary, check_dd_zero
from .liealg import LieAlgebra, Signature
from .linalg import (
    CapExceededError,
    ExactEliminator,
    PrimeDisagreementError,
    RankCertificate,
    SparseModularEliminator,
    draw_primes,
)
from .repspace import random_chain, tensor_space

__all__ = [
    "HomologyOptions",
    "BettiEntry",
    "BettiReport",
    "homology_dims",
    "predicted_hl_dims",
    "cohomology_dims",
]

DEFAULT_CAP_EXACT = 10_000
DEFAULT_CAP_MODULAR = 3_000_000


@dataclass(frozen=True)
class HomologyOptions:
    mode: str = "auto"  # "auto" | "exact" | "modular"
    cap_exact: int = DEFAULT_CAP_EXACT
    cap_modular: int = DEFAULT_CAP_MODULAR
    primes: int = 2
    seed: int = 0
    dd_checks: int = 100

    def __post_init__(self):
        if self.mode not in ("auto", "exact", "modular"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class BettiEntry:
    degree: int
    dim: int
    rank_d_k: int
    rank_d_k1: int
    betti: int
    certification: str  # "exact" | "two-prime"

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "dim": self.dim,
            "rank_d_k": self.rank_d_k,
            "rank_d_k1": self.rank_d_k1,
            "betti": self.betti,
            "certification": self.certification,
        }


@dataclass
class BettiReport:
    algebra: str
    kind: str  # "loday" | "ce"
    variant: str  # "homology" | "cohomology"
    mode: str
    max_degree: int
    entries: list[BettiEntry]
    predicted: Optional[list[int]] = None
    matches: Optional[list[bool]] = None
    certificates: dict[int, RankCertificate] = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    capped_at: Optional[int] = None
    cap_message: Optional[str] = None

    @property
    def betti(self) -> list[int]:
        return [e.betti for e in self.entries]

    @property
    def all_match(self) -> bool:
        return bool(self.matches) and all(self.matches)

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "kind": self.kind,
            "variant": self.variant,
            "mode": self.mode,
            "max_degree": self.max_degree,
            "entries": [e.to_json_dict() for e in self.entries],
            "predicted": self.predicted,
            "matches": self.matches,
            "certificates": {
                str(k): c.to_json_dict() for k, c in sorted(self.certificates.items())
            },
            "environment": self.environment,
            "capped_at": self.capped_at,
            "cap_message": self.cap_message,
        }

    def table(self) -> str:
        lines = [f"{self.variant} of {self.algebra} ({self.kind}, mode {self.mode})"]
        header = f"{'k':>3} {'dim':>9} {'rank d_k':>9} {'rank d_k+1':>10} {'betti':>6} {'cert':>10}"
        if self.predicted is not None:
            header += f" {'predicted':>10} {'match':>6}"
        lines.append(header)
        for i, e in enumerate(self.entries):
            row = f"{e.degree:>3} {e.dim:>9} {e.rank_d_k:>9} {e.rank_d_k1:>10} {e.betti:>6} {e.certification:>10}"
            if self.predicted is not None:
                row += f" {self.predicted[i]:>10} {str(self.matches[i]):>6}"
            lines.append(row)
        if self.capped_at is not None:
            lines.append(f"  capped at degree {self.capped_at}: {self.cap_message}")
        return "\n".join(lines)


def predicted_hl_dims(sig: Signature, max_degree: int) -> list[int]:
    """Coefficients of (1 + t^n) * sum_k t^(k(n-1)) through max_degree.

    Degree-0 coefficient 1, a 1-dimensional class in every degree k(n-1) and
    k(n-1)+n, nothing else; the two families never collide for n >= 4.
    """
    n = sig.n
    if n < 4:
        raise ValueError("the predicted dimension series is stated for n >= 4")
    out = [0] * (max_degree + 1)
    k = 0
    while k * (n - 1) <= max_degree:
        out[k * (n - 1)] += 1
        if k * (n - 1) + n <= max_degree:
            out[k * (n - 1) + n] += 1
        k += 1
    return out


def _rank_exact_blocks(blocks) -> int:
    total = 0
    for block in blocks:
        if block.cols == 0 or block.rows == 0:
            continue
        elim = ExactEliminator(block.rows)
        for col in block.columns():
            if col:
                elim.add_column(col)
        total += elim.rank
    return total


def _rank_modular_blocks(blocks, primes: Sequence[int]) -> int:
    """Sum of per-weight-block ranks; every block must agree across all primes.

    Each block's columns are generated once, as CSC arrays, and fed to one
    eliminator per prime.
    """
    total = 0
    for block in blocks:
        if block.cols == 0 or block.rows == 0:
            continue
        indptr, rowidx, values = block.csc()
        ranks = []
        for p in primes:
            elim = SparseModularEliminator(block.rows, p)
            elim.process_sparse_columns(
                list(zip(rowidx[lo:up].tolist(), values[lo:up].tolist()))
                for lo, up in zip(indptr[:-1], indptr[1:])
            )
            ranks.append(elim.rank)
        if len(set(ranks)) != 1:
            raise PrimeDisagreementError(
                f"block weight={block.weight}: ranks {ranks} for primes {list(primes)}"
            )
        total += ranks[0]
    return total


def _boundary_rank(
    op: LodayBoundary, k: int, opts: HomologyOptions, primes: Sequence[int]
) -> RankCertificate:
    """Rank of d_k with mode/cap policy applied."""
    if k <= 1:
        # d_1 is the zero map to the ground field; d_0 does not exist
        return RankCertificate(0, "Q", "exact")
    cols = op.algebra.dim**k
    exact = opts.mode == "exact" or (opts.mode == "auto" and cols <= opts.cap_exact)
    if exact:
        if cols > opts.cap_exact:
            raise CapExceededError(
                f"degree {k}: {cols} columns exceed the exact cap {opts.cap_exact}"
            )
        return RankCertificate(_rank_exact_blocks(op.blocks(k)), "Q", "exact")
    if cols > opts.cap_modular:
        raise CapExceededError(
            f"degree {k}: {cols} columns exceed the modular cap {opts.cap_modular}"
        )
    r = _rank_modular_blocks(op.blocks(k), primes)
    return RankCertificate(r, "Fp", "modular", list(primes))


def homology_dims(
    algebra: LieAlgebra,
    max_degree: int,
    *,
    kind: str = "loday",
    options: Optional[HomologyOptions] = None,
    predicted: Optional[list[int]] = None,
) -> BettiReport:
    """Betti numbers of the Loday (or CE) complex through ``max_degree``.

    For canonical affine algebras with n >= 4 the report carries the predicted
    dimension series and per-degree match flags unless ``predicted`` overrides
    it.  A cap hit produces a partial report (``capped_at`` set) rather than
    an exception.
    """
    opts = options or HomologyOptions()
    rng = random.Random(opts.seed)
    primes = draw_primes(rng, opts.primes, exclude_below=algebra.dim)

    if kind == "ce":
        return _ce_homology(algebra, max_degree, opts, primes)
    if kind != "loday":
        raise ValueError(f"unknown complex kind {kind!r}")

    op = LodayBoundary(algebra)
    check_dd_zero(
        op.apply,
        lambda k, r: random_chain(tensor_space(algebra, k), r),
        range(2, max_degree + 2),
        rng,
        count=opts.dd_checks,
    )

    ranks: dict[int, RankCertificate] = {}
    capped_at = cap_message = None
    for k in range(1, max_degree + 2):
        try:
            ranks[k] = _boundary_rank(op, k, opts, primes)
        except CapExceededError as exc:
            capped_at, cap_message = k, str(exc)
            break

    entries = []
    for k in range(0, max_degree + 1):
        if (k in ranks or k == 0) and (k + 1) in ranks:
            dim = 1 if k == 0 else algebra.dim**k
            rk = 0 if k == 0 else ranks[k].rank
            rk1 = ranks[k + 1].rank
            betti = dim - rk - rk1
            if betti < 0:
                raise RuntimeError(
                    f"degree {k}: rank d_k + rank d_k+1 = {rk + rk1} exceeds the dimension {dim}"
                )
            cert = "exact"
            if (k in ranks and ranks[k].method == "modular") or ranks[k + 1].method == "modular":
                cert = "two-prime"
            entries.append(BettiEntry(k, dim, rk, rk1, betti, cert))
        else:
            break

    if predicted is None and algebra.sig is not None and algebra.sig.n >= 4 and algebra.weights:
        predicted = predicted_hl_dims(algebra.sig, max_degree)
    matches = None
    if predicted is not None:
        matches = [e.betti == predicted[e.degree] for e in entries]

    return BettiReport(
        algebra=algebra.name,
        kind=kind,
        variant="homology",
        mode=opts.mode,
        max_degree=max_degree,
        entries=entries,
        predicted=predicted,
        matches=matches,
        certificates=ranks,
        environment={
            "seed": opts.seed,
            "primes": list(primes),
            "cap_exact": opts.cap_exact,
            "cap_modular": opts.cap_modular,
        },
        capped_at=capped_at,
        cap_message=cap_message,
    )


def _ce_homology(
    algebra: LieAlgebra, max_degree: int, opts: HomologyOptions, primes
) -> BettiReport:
    """CE homology: H(M ⊗ Λ^k I) with M the whole algebra for graded algebras,
    trivial coefficients over the whole algebra otherwise."""
    if algebra.weights is not None and algebra.translation_indices:
        op = CEBoundary(algebra, tuple(range(algebra.dim)), algebra.translation_indices)
        spaces = [op.space(k) for k in range(max_degree + 2)]
        apply_fn = op.apply
    else:
        from .complexes import wedge_boundary
        from .repspace import Space

        full = tuple(range(algebra.dim))
        spaces = [Space(algebra, "wedge", k, full) for k in range(max_degree + 2)]
        apply_fn = wedge_boundary
        op = None

    rng = random.Random(opts.seed)
    check_dd_zero(
        apply_fn,
        lambda k, r: random_chain(spaces[k], r),
        range(2, max_degree + 2),
        rng,
        count=opts.dd_checks,
    )
    ranks: dict[int, RankCertificate] = {0: RankCertificate(0, "Q", "exact")}
    for k in range(1, max_degree + 2):
        rowspace, colspace = spaces[k - 1], spaces[k]
        if colspace.dim > opts.cap_exact:
            raise CapExceededError(f"CE degree {k}: {colspace.dim} columns exceed {opts.cap_exact}")
        elim = ExactEliminator(max(rowspace.dim, 1))
        for j in range(colspace.dim):
            image = apply_fn(colspace.basis_chain(colspace.unrank_word(j)))
            col = sorted((rowspace.rank_word(w), c) for w, c in image.coeffs.items())
            elim.add_column(col)
        ranks[k] = RankCertificate(elim.rank, "Q", "exact")
    entries = []
    for k in range(0, max_degree + 1):
        dim = spaces[k].dim
        rk = ranks[k].rank
        rk1 = ranks[k + 1].rank
        entries.append(BettiEntry(k, dim, rk, rk1, dim - rk - rk1, "exact"))
    return BettiReport(
        algebra=algebra.name,
        kind="ce",
        variant="homology",
        mode="exact",
        max_degree=max_degree,
        entries=entries,
        certificates=ranks,
        environment={
            "seed": opts.seed,
            "primes": [],
            "cap_exact": opts.cap_exact,
            "cap_modular": opts.cap_modular,
        },
    )


def cohomology_dims(report: BettiReport) -> BettiReport:
    """The dual table: identical dimensions, flagged as cohomology."""
    return replace(
        report,
        variant="cohomology",
        entries=[replace(e) for e in report.entries],
    )
