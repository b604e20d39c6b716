"""Betti numbers of the Loday and CE complexes, with certification metadata.

Betti numbers come from rank-nullity on the boundary matrices:

    betti_k = dim(degree k) - rank d_k - rank d_{k+1}.

Both complexes run through one pipeline: the boundary operator's chain space
dimensions and its blocks (the Loday grade blocks, one per grade of the
degree-k words: translation count, torus weights if any, parity vector; or
one block per degree for CE).

The Loday complex of ``build_affine(sig)`` or ``build_so(sig)`` is reduced
(``split.split_reduction``).  It runs on the algebra's split form, whose
basis diagonalises the split torus Y(i,p+i), i <= min(p,q), with integer
weights; every element acts trivially on homology, so every grade block of
nonzero torus weight is acyclic, and so is every block that one of the
sign flips commuting with the torus (in the identity component) negates.
Only the blocks of weight 0 and trivial flip character are kept.  The
identity component SO_0(p,q) acts trivially on homology too
(Loday-Pirashvili), and with it the finite group of signed permutations of
R^n with det +1 on each block of the form that map the split basis to
itself up to sign.  Over Q the average over that group is a chain
projection, so the subcomplex of orbit sums of the kept blocks has their
homology, and only it is ranked (``complexes.LodayBoundary`` with
``symmetries``); an orbit whose stabiliser acts by -1 sums to 0.  At
h(2,2) d_5 has 1,240 orbit columns, of 4,992 kept and 10^5 in all.  ``dim``
counts the orbits, and the report records the torus, the flips, the kept
parities and the group order.  At q = 0 there is no torus and the kept
blocks are those of the flips alone.  Every other algebra, and every CE
complex, keeps all blocks and every word.

The rank of d_k is the sum of its block ranks, all taken by ``_rank_blocks``:
over Q (streaming elimination) without primes, else mod every prime, which
must agree on every block or the disagreement is reported as an error rather
than guessed away.  Both engines read the same sparse integer columns
(``linalg.integer_column``); a modular rank generates each block's columns
once for all its primes.  The degree loop of ``homology_dims`` chooses before
it reads a column: exact when the ranked blocks have at most ``cap_exact``
columns together, otherwise modular when they have at most ``cap_modular``.
``cap_exact=0`` ranks every nonzero boundary modularly, ``cap_modular=0``
only exactly.  A degree past both caps ends the table there, as a partial
report, and the loop writes the cap message.  Every run checks d∘d = 0 on
every column it ranks (the orbit columns, when reduced) and aborts on a
nonzero composite, naming the degree and grade.  It makes one pass per degree
k: the rank of d_k reads each column once, composed on the way with the
columns of d_{k-1} of its grade that the last rank kept, and below the top
degree keeps it for the next.  So the check generates no column of its own,
and only two degrees' columns are held at a time.  A block with no rows, or
whose grade had no ranked block below it, has a zero composite and is not
composed.  The degrees past a cap are not ranked, and their columns are not
held: they are spot-checked on random chains instead
(``complexes.check_dd_zero``).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .complexes import (
    BoundaryBlock,
    CEBoundary,
    Column,
    LodayBoundary,
    WedgeBoundary,
    check_dd_zero,
)
from .liealg import Coeff, Grade, LieAlgebra, Signature
from .linalg import (
    DEFAULT_CAP_EXACT,
    ExactEliminator,
    PrimeDisagreementError,
    RankCertificate,
    SparseModularEliminator,
    draw_primes,
)

if TYPE_CHECKING:
    from .split import SplitReduction

__all__ = [
    "DEFAULT_CAP_EXACT",
    "DEFAULT_CAP_MODULAR",
    "HomologyOptions",
    "BettiEntry",
    "BettiReport",
    "homology_dims",
    "predicted_hl_dims",
    "cohomology_dims",
]

DEFAULT_CAP_MODULAR = 3_000_000

ColumnReader = Callable[[BoundaryBlock], Iterable[Column]]  # a block's columns, in order
HeldColumns = dict[Optional[Grade], list[Column]]  # one degree's ranked columns, by grade


@dataclass(frozen=True)
class HomologyOptions:
    cap_exact: int = DEFAULT_CAP_EXACT
    cap_modular: int = DEFAULT_CAP_MODULAR
    primes: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("cap_exact", "cap_modular"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")
        if self.primes < 2:
            raise ValueError(f"modular ranks need at least 2 agreeing primes, got {self.primes}")

    def environment(self, primes_used: Sequence[int]) -> dict:
        """The environment record of a report: seed, primes drawn, caps."""
        return {
            "seed": self.seed,
            "primes": list(primes_used),
            "cap_exact": self.cap_exact,
            "cap_modular": self.cap_modular,
        }


@dataclass
class BettiEntry:
    degree: int
    dim: int
    rank_d_k: int
    rank_d_k1: int
    betti: int
    certification: str  # "exact" | "two-prime"

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class BettiReport:
    algebra: str
    kind: str  # "loday" | "ce"
    variant: str  # "homology" | "cohomology"
    max_degree: int
    entries: list[BettiEntry]
    predicted: Optional[list[int]] = None
    matches: Optional[list[bool]] = None
    certificates: dict[int, RankCertificate] = field(default_factory=dict)
    environment: dict = field(default_factory=dict)
    capped_at: Optional[int] = None
    cap_message: Optional[str] = None
    reduction: Optional[SplitReduction] = None  # None: every block ranked

    @property
    def betti(self) -> list[int]:
        return [e.betti for e in self.entries]

    def to_json_dict(self) -> dict:
        out = {
            "algebra": self.algebra,
            "kind": self.kind,
            "variant": self.variant,
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
        # only reduced reports carry the key, so unreduced ones keep their bytes
        if self.reduction is not None:
            out["reduction"] = self.reduction.to_json_dict()
        return out

    def table(self) -> str:
        lines = [f"{self.variant} of {self.algebra} ({self.kind})"]
        header = f"{'k':>3} {'dim':>9} {'rank d_k':>9} {'rank d_k+1':>10} {'betti':>6} {'cert':>10}"
        if self.predicted is not None:
            header += f" {'predicted':>10} {'match':>6}"
        lines.append(header)
        for i, e in enumerate(self.entries):
            row = f"{e.degree:>3} {e.dim:>9} {e.rank_d_k:>9} {e.rank_d_k1:>10} {e.betti:>6} {e.certification:>10}"
            if self.predicted is not None:
                row += f" {self.predicted[i]:>10} {str(self.matches[i]):>6}"
            lines.append(row)
        if self.reduction is not None:
            red = self.reduction
            torus = ", ".join(map(str, red.torus)) or "no torus"
            lines.append(
                f"  reduced to torus weight 0 under {torus} and the parities "
                f"{list(red.kept)} fixed by the sign flips {list(red.flips)}, "
                f"as orbit sums under a group of order {len(red.symmetries)}"
            )
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


def _composed_columns(
    k: int,
    lower: HeldColumns,
    kept: Optional[HeldColumns],
    block: BoundaryBlock,
) -> Iterator[Column]:
    """The columns of the degree-k ``block`` in order, each composed with
    ``lower``'s columns of d_{k-1} of its grade, which it lets go; a nonzero
    composite raises ``AssertionError``.  With ``kept`` the columns are kept
    there, by grade, for degree k+1."""
    below = lower.pop(block.grade, None)
    held = None if kept is None else kept.setdefault(block.grade, [])
    for col in block.columns():
        if below is not None:
            out: dict[int, Coeff] = {}
            for i, v in col:
                for r, w in below[i]:
                    nv = out.get(r, 0) + v * w
                    if nv:
                        out[r] = nv
                    elif r in out:
                        del out[r]
            if out:
                raise AssertionError(f"d∘d != 0 at degree {k}, grade {block.grade}")
        if held is not None:
            held.append(col)
        yield col


def _rank_blocks(
    blocks, primes: Sequence[int] = (), read: ColumnReader = BoundaryBlock.columns
) -> int:
    """Sum of the ranks of ``blocks``: over Q without ``primes``, else mod
    every prime, which must agree on every block.  ``read(block)`` gives a
    block's columns in order; a modular rank lists them once for all its
    primes.  Blocks with no rows or no columns are skipped."""
    total = 0
    for block in blocks:
        if block.cols == 0 or block.rows == 0:
            continue
        if not primes:
            elim = ExactEliminator(block.rows)
            for col in read(block):
                if col:
                    elim.add_column(col)
            total += elim.rank
            continue
        cols = list(read(block))
        ranks = []
        for p in primes:
            elim = SparseModularEliminator(block.rows, p)
            elim.process_sparse_columns(cols)
            ranks.append(elim.rank)
        if len(set(ranks)) != 1:
            raise PrimeDisagreementError(
                f"block grade={block.grade}: ranks {ranks} for primes {list(primes)}"
            )
        total += ranks[0]
    return total


def _boundary(algebra: LieAlgebra, kind: str, reduction: Optional[SplitReduction]):
    """The boundary operator of the complex: Loday on the tensor powers (the
    orbit sums of the kept blocks of the split form, if reduced), or CE on
    h ⊗ Λ^k (translations) for algebras with translations, and with trivial
    coefficients on Λ^k h otherwise."""
    if kind == "loday":
        if reduction is not None:
            return LodayBoundary(
                reduction.algebra, keep=reduction.grades, symmetries=reduction.symmetries
            )
        return LodayBoundary(algebra)
    if kind != "ce":
        raise ValueError(f"unknown complex kind {kind!r}")
    everything = tuple(range(algebra.dim))
    if algebra.translation_indices:
        return CEBoundary(algebra, everything, algebra.translation_indices)
    return WedgeBoundary(algebra, everything)


def homology_dims(
    algebra: LieAlgebra,
    max_degree: int,
    *,
    kind: str = "loday",
    options: Optional[HomologyOptions] = None,
) -> BettiReport:
    """Betti numbers of the Loday (or CE) complex through ``max_degree``.

    For the Loday complex of an affine algebra with n >= 4 (n basis elements
    of translation count 1) the report carries the predicted dimension series
    and per-degree match flags.  The Loday complex of ``build_affine``/
    ``build_so`` runs on the orbit sums of the kept blocks of its split
    form only (``reduction`` in the report).  A cap hit produces a partial report
    (``capped_at`` set) rather than an exception.  A negative ``max_degree``
    raises ``ValueError``.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be at least 0, got {max_degree}")
    opts = options or HomologyOptions()
    rng = random.Random(opts.seed)
    primes = draw_primes(rng, opts.primes)
    reduction = None
    if kind == "loday":
        # loaded on the first Loday run, so importing the package stays as cheap
        from .split import split_reduction

        reduction = split_reduction(algebra)
    op = _boundary(algebra, kind, reduction)

    # one pass per degree k: past both caps the table ends; else the rank of
    # d_k, exact within cap_exact, composes each column it reads with the
    # kept columns of d_{k-1}, and below the top degree keeps it
    lower: Optional[HeldColumns] = {}
    ranks: dict[int, RankCertificate] = {}
    capped_at = cap_message = None
    for k in range(1, max_degree + 2):
        blocks = op.blocks(k)
        cols = sum(b.cols for b in blocks)
        if cols > opts.cap_exact and cols > opts.cap_modular:
            capped_at = k
            cap_message = (
                f"degree {k}: {cols} columns exceed the exact cap {opts.cap_exact} "
                f"and the modular cap {opts.cap_modular}"
            )
            check_dd_zero(op, range(k, max_degree + 2), rng)
            break
        kept: Optional[HeldColumns] = {} if k <= max_degree else None
        read = partial(_composed_columns, k, lower, kept)
        if cols <= opts.cap_exact:
            ranks[k] = RankCertificate(_rank_blocks(blocks, read=read), "Q", "exact")
        else:
            rank = _rank_blocks(blocks, primes, read)
            ranks[k] = RankCertificate(rank, "Fp", "modular", list(primes))
        lower = kept

    entries = []
    for k in range(0, max_degree + 1):
        if k + 1 not in ranks:
            break
        dim = op.dim(k)
        rk = ranks[k].rank if k else 0  # d_0 does not exist
        rk1 = ranks[k + 1].rank
        betti = dim - rk - rk1
        if betti < 0:
            raise RuntimeError(
                f"degree {k}: rank d_k + rank d_k+1 = {rk + rk1} exceeds the dimension {dim}"
            )
        cert = "exact"
        if (k and ranks[k].method == "modular") or ranks[k + 1].method == "modular":
            cert = "two-prime"
        entries.append(BettiEntry(k, dim, rk, rk1, betti, cert))

    sig = algebra.sig
    affine = sig is not None and sig.n >= 4 and sum(g[0] for g in algebra.grades) == sig.n
    predicted = predicted_hl_dims(sig, max_degree) if kind == "loday" and affine else None
    matches = None if predicted is None else [e.betti == predicted[e.degree] for e in entries]

    return BettiReport(
        algebra=algebra.name,
        kind=kind,
        variant="homology",
        max_degree=max_degree,
        entries=entries,
        predicted=predicted,
        matches=matches,
        certificates=ranks,
        environment=opts.environment(primes),
        capped_at=capped_at,
        cap_message=cap_message,
        reduction=reduction,
    )


def cohomology_dims(report: BettiReport) -> BettiReport:
    """The dual table: identical dimensions, flagged as cohomology."""
    return replace(
        report,
        variant="cohomology",
        entries=[replace(e) for e in report.entries],
    )
