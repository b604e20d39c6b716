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

The rank of d_k is the sum of its block ranks, all taken over Q by
``_rank_blocks`` (streaming fraction-free elimination,
``linalg.ExactEliminator``), so every Betti number of a report is exact.
``_rank_blocks`` can also rank mod one prime, which only bounds the rank
over Q from above; ``verify`` uses that as a cross-check of the engines and
no Betti number rests on it.  Every rank reads the sparse integer columns of
``linalg.integer_column``.  The degree loop of ``homology_dims`` checks the
one cap before it reads a column: a degree whose ranked blocks have more
than ``cap_exact`` columns together ends the table there, as a partial
report whose entries are all exact, and the loop writes the cap message.

Every run checks d∘d = 0 on the columns it ranks (the orbit columns, when
reduced) and aborts on a nonzero composite, naming the degree and grade.  It
makes one pass per degree k: the rank of d_k reads each column once, keeps
it for the next degree below the top one, and composes it with the kept
columns of d_{k-1} of its grade if it raised the rank of its block.  Any
other column is 0 or a combination over Q of earlier columns of its block,
whose composites were 0, so its own is 0 and is not computed.  The check
generates no column of its own, and only two degrees' columns are held at
a time.  A block with no rows, or whose grade had no ranked block below it,
has a zero composite and is not composed.  The capped degree is not ranked,
and its columns are not held: it is spot-checked on random chains, drawn
from the seed, instead (``complexes.check_dd_zero``).  No
entry of the table reads a later degree, so none is built.
"""

from __future__ import annotations

import copy
import random
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from ._value import Frozen, Value
from .complexes import (
    BoundaryBlock,
    CEBoundary,
    Column,
    LodayBoundary,
    WedgeBoundary,
    check_dd_zero,
)
from .liealg import Coeff, Grade, LieAlgebra, Signature
from .linalg import DEFAULT_CAP_EXACT, ExactEliminator, RankCertificate, SparseModularEliminator

if TYPE_CHECKING:
    from .split import SplitReduction

__all__ = [
    "DEFAULT_CAP_EXACT",
    "HomologyOptions",
    "BettiEntry",
    "BettiReport",
    "homology_dims",
    "predicted_hl_dims",
    "cohomology_dims",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = "1"  # of every JSON report the CLI writes

ColumnCheck = Callable[[Column, bool], None]  # a ranked column, and whether it raised the rank
HeldColumns = dict[Optional[Grade], list[Column]]  # one degree's ranked columns, by grade


class HomologyOptions(Frozen):
    _fields = ("cap_exact", "seed")

    def __init__(self, cap_exact: int = DEFAULT_CAP_EXACT, seed: int = 0) -> None:
        if cap_exact < 0:
            raise ValueError(f"cap_exact must be at least 0, got {cap_exact}")
        self.__dict__.update(cap_exact=cap_exact, seed=seed)

    def environment(self) -> dict:
        """The environment record of a report: seed and cap."""
        return {"seed": self.seed, "cap_exact": self.cap_exact}


class BettiEntry(Value):
    _fields = ("degree", "dim", "rank_d_k", "rank_d_k1", "betti", "certification")

    def __init__(
        self, degree: int, dim: int, rank_d_k: int, rank_d_k1: int, betti: int, certification: str
    ) -> None:
        self.degree = degree
        self.dim = dim
        self.rank_d_k = rank_d_k
        self.rank_d_k1 = rank_d_k1
        self.betti = betti
        self.certification = certification  # always "exact"

    def to_json_dict(self) -> dict:
        return self._asdict()


class BettiReport(Value):
    _fields = (
        "algebra", "kind", "variant", "max_degree", "entries", "predicted", "matches",
        "certificates", "environment", "capped_at", "cap_message", "reduction",
    )

    def __init__(
        self, algebra: str, kind: str, variant: str, max_degree: int, entries: list[BettiEntry],
        predicted: Optional[list[int]] = None, matches: Optional[list[bool]] = None,
        certificates: Optional[dict[int, RankCertificate]] = None,
        environment: Optional[dict] = None, capped_at: Optional[int] = None,
        cap_message: Optional[str] = None, reduction: Optional[SplitReduction] = None,
    ) -> None:
        self.algebra = algebra
        self.kind = kind  # "loday" | "ce"
        self.variant = variant  # "homology" | "cohomology"
        self.max_degree = max_degree
        self.entries = entries
        self.predicted = predicted
        self.matches = matches
        self.certificates = {} if certificates is None else certificates
        self.environment = {} if environment is None else environment
        self.capped_at = capped_at
        self.cap_message = cap_message
        self.reduction = reduction  # None: every block ranked

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


def _composite(col: Column, below: list[Column]) -> dict[int, Coeff]:
    """d_{k-1}(``col``) without zeros, ``below`` the columns of d_{k-1}."""
    out: dict[int, Coeff] = {}
    for i, v in col:
        for r, w in below[i]:
            nv = out.get(r, 0) + v * w
            if nv:
                out[r] = nv
            elif r in out:
                del out[r]
    return out


def _dd_check(
    k: int,
    lower: HeldColumns,
    kept: Optional[HeldColumns],
    block: BoundaryBlock,
) -> ColumnCheck:
    """What the rank of the degree-k ``block`` calls with each column: a
    column that raised the rank is composed with ``lower``'s columns of
    d_{k-1} of its grade, which the block lets go, and a nonzero composite
    raises ``AssertionError``.  With ``kept`` every column is kept there, by
    grade, for degree k+1."""
    below = lower.pop(block.grade, None)
    held = None if kept is None else kept.setdefault(block.grade, [])

    def check_column(col: Column, raised: bool) -> None:
        if raised and below is not None and _composite(col, below):
            raise AssertionError(f"d∘d != 0 at degree {k}, grade {block.grade}")
        if held is not None:
            held.append(col)

    return check_column


def _rank_blocks(
    blocks, p: Optional[int] = None, check: Optional[Callable[[BoundaryBlock], ColumnCheck]] = None
) -> int:
    """Sum of the ranks of ``blocks``: over Q without ``p``, else mod the
    prime ``p``, which is at most the rank over Q.  Blocks with no rows or
    no columns are skipped.  ``check(block)``, if given, is called once per
    ranked block, and what it returns gets each column of the block, in
    order, with whether it raised the rank."""
    total = 0
    for block in blocks:
        if block.cols == 0 or block.rows == 0:
            continue
        elim = ExactEliminator(block.rows) if p is None else SparseModularEliminator(block.rows, p)
        add = elim.add_column
        check_column = None if check is None else check(block)
        for col in block.columns():
            raised = add(col) if col else False
            if check_column is not None:
                check_column(col, raised)
        total += elim.rank
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
    form only (``reduction`` in the report).  Every rank is exact over Q.  A
    degree past ``cap_exact`` ends the table in a partial report
    (``capped_at`` set) rather than an exception.  A negative ``max_degree``
    raises ``ValueError``.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be at least 0, got {max_degree}")
    opts = options or HomologyOptions()
    reduction = None
    if kind == "loday":
        # loaded on the first Loday run, so importing the package stays as cheap
        from .split import split_reduction

        reduction = split_reduction(algebra)
    op = _boundary(algebra, kind, reduction)

    # one pass per degree k: past the cap the table ends; else the exact
    # rank of d_k composes each column that raises it with the kept columns
    # of d_{k-1}, and below the top degree keeps every column it reads
    lower: Optional[HeldColumns] = {}
    ranks: dict[int, RankCertificate] = {}
    capped_at = cap_message = None
    for k in range(1, max_degree + 2):
        blocks = op.blocks(k)
        cols = sum(b.cols for b in blocks)
        if cols > opts.cap_exact:
            capped_at = k
            cap_message = f"degree {k}: {cols} columns exceed the exact cap {opts.cap_exact}"
            check_dd_zero(op, (k,), random.Random(opts.seed))
            break
        kept: Optional[HeldColumns] = {} if k <= max_degree else None
        check = partial(_dd_check, k, lower, kept)
        ranks[k] = RankCertificate(_rank_blocks(blocks, check=check), "Q", "exact")
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
        entries.append(BettiEntry(k, dim, rk, rk1, betti, "exact"))

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
        environment=opts.environment(),
        capped_at=capped_at,
        cap_message=cap_message,
        reduction=reduction,
    )


def cohomology_dims(report: BettiReport) -> BettiReport:
    """The dual table: identical dimensions, flagged as cohomology."""
    out = copy.copy(report)
    out.variant = "cohomology"
    out.entries = [copy.copy(e) for e in report.entries]
    return out
