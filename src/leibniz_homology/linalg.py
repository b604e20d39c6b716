"""Sparse exact linear algebra over Q and over prime fields.

Two engines back every rank/kernel/solve in the package, both streaming
reduced-echelon column elimination with dictionary rows keyed by pivot.
Both follow one pivot rule: a column that enlarges the span becomes a row
whose pivot is its largest row index.  Ranks, kernel relations and solve
witnesses do not depend on that rule (a relation of a dependent column on
the earlier independent ones is unique), but fill does: the boundary blocks
stream their columns in lex order of the words, and pivoting on the largest
row ranks the ``h(2,2)`` ``d_6`` blocks several times as fast as pivoting on
the least.

* ``ExactEliminator`` — over Q.  Rows are Python-integer dicts with their
  content divided out and a positive pivot entry (fraction-free elimination).
  Python integers cannot overflow, so no machine-integer path is needed, and
  no ``Fraction`` enters elimination.  Kernel vectors and solve witnesses
  come from tracking, which gives each fed column one more integer
  coordinate (the ``[A; I]`` augmentation), so a row carries its combination
  of the fed columns as coordinates of the same dict.

* ``SparseModularEliminator`` — mod p, every pivot entry 1.  Its modulus
  must pass ``_is_prime``, the exact primality test that ``verify``'s draws
  from [2^29, 2^30) also use.  A rank mod p never exceeds the rank over
  Q, so it is only an upper bound; no Betti number rests on it.  It stays
  as an independent cross-check of the exact engine (``verify``'s
  ``structure.rank_cross_field``) and as a test oracle.

Every matrix of the package is one format, the one both engines read: its
row count and a list of columns, each a sorted list of ``(row, value)``
pairs of Python integers or ``Fraction``s.  ``kernel_basis(rows, columns)``
and ``solve(rows, columns, b)`` raise ``ValueError`` on a row index outside
``[0, rows)``, which a tracked ``ExactEliminator`` would read as a
combination coordinate, and on a column that repeats a row index, whose
entries the eliminators would not sum.  ``integer_column`` scales a column with fractions
by the lcm of its denominators before either engine reduces it; the scaled
column spans the same line over Q, so the rank over Q is unchanged, a rank
mod p stays at most the rank over Q, and no prime can divide a denominator.

Column indices below refer to vectors living in F^rows; the eliminators
maintain a reduced basis of the span of the columns seen so far, so the
basis size is the rank.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from ._value import Value

__all__ = [
    "RankCertificate",
    "CapExceededError",
    "ExactEliminator",
    "SparseModularEliminator",
    "kernel_basis",
    "solve",
    "integer_column",
    "DEFAULT_CAP_EXACT",
]

# Default cap on the columns of one degree's exact rank (``homology``) or of
# one exact solve block (``complexes.is_boundary``); kept here, below both
# modules.
DEFAULT_CAP_EXACT = 3_000_000

SparseColumn = Sequence[tuple[int, Union[int, Fraction]]]


class CapExceededError(RuntimeError):
    """A configured size cap was exceeded; message names the offending sizes."""


def integer_column(col: SparseColumn) -> tuple[int, SparseColumn]:
    """``(scale, scale * col)``: the lcm of the column's denominators and the
    integer column it scales to, the column itself when it is all ``int``s."""
    if all(type(v) is int for _, v in col):  # returned as it is
        return 1, col
    scale = math.lcm(*(v.denominator for _, v in col))
    return scale, [(r, v.numerator * (scale // v.denominator)) for r, v in col]


@functools.lru_cache
def _is_prime(n: int) -> bool:
    """Exact primality by trial division up to ``isqrt(n)``."""
    if n < 4:
        return n > 1
    return n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


class RankCertificate(Value):
    _fields = ("rank", "field", "method")

    def __init__(self, rank: int, field: str, method: str) -> None:
        self.rank = rank
        self.field = field  # "Q"
        self.method = method  # "exact"


# ---------------------------------------------------------------------------
# Exact engine.


class ExactEliminator:
    """Streaming reduced-echelon elimination over Q with integer dict rows.

    The design is that of ``SparseModularEliminator``: ``basis`` maps each
    pivot to its row, every row is zero at every pivot but its own, so one
    pass over the pivots a column hits, in any order, fully reduces it, and
    what is left pivots on its largest row index below ``rowdim``.  That pass
    reduces the column's own fresh dict in place: per pivot it scales the
    dict by a only when a != 1, then subtracts b times the row (the dict
    ``_combine`` would build, key order included).  ``users`` maps each
    coordinate to the rows containing it for back-reduction.  The
    arithmetic is fraction-free on Python integers, which cannot overflow;
    every column is read through ``integer_column``, and every row is
    primitive with a positive pivot entry.

    With ``track=True`` the columns are those of ``[A; I]``: the t-th fed
    column gets the extra coordinate ``rowdim + t``, whose value is its
    scale.  Coordinates ``>= rowdim`` never become pivots (nor enter
    ``users``, which back-reduction reads only at pivots), so every row is
    its vector followed by its integer combination of the fed columns, and
    one row operation updates both.  A column is dependent when nothing below
    ``rowdim`` is left of it; what is left, divided by its gcd, is
    ``relation``: a primitive integer relation among the fed columns, keyed
    by feed index and positive on that column.  It is built when read, and
    only the last fed column's is kept.
    """

    def __init__(self, rowdim: int, *, track: bool = False):
        self.rowdim = rowdim
        self.track = track
        self.fed = 0
        self.basis: dict[int, dict[int, int]] = {}  # pivot -> primitive row, lead > 0
        self.users: dict[int, set[int]] = {}  # coord < rowdim -> pivots of rows containing it
        self._left: Optional[dict[int, int]] = None  # what a dependent tracked column left

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def relation(self) -> Optional[dict[int, int]]:
        """The relation of the last fed column if it was dependent (tracked
        eliminators only), else None."""
        if self._left is None:
            return None
        g = math.gcd(*self._left.values())
        return {r - self.rowdim: x // g for r, x in self._left.items()}

    def add_column(self, col: SparseColumn) -> bool:
        """Feed a column; returns True if it enlarged the span (new pivot)."""
        rowdim = self.rowdim
        scale, col = integer_column(col)
        work = {r: v for r, v in col if v}
        if self.track:
            work[rowdim + self.fed] = scale
        self.fed += 1
        self._left = None
        # work is the column's own dict: reduce it in place to a*work - b*row
        for piv in [r for r in work if r in self.basis]:
            row = self.basis[piv]
            a, b = _cofactors(row[piv], work[piv])
            if a != 1:
                for t, x in work.items():
                    work[t] = a * x
            for t, x in row.items():
                nx = work.get(t, 0) - b * x
                if nx:
                    work[t] = nx
                else:
                    del work[t]
        piv = max((r for r in work if r < rowdim), default=None)
        if piv is None:
            if self.track:
                self._left = work
            return False
        work = _normalize(work, piv)
        users = self.users
        # back-reduce the rows that contain the new pivot
        for piv2 in list(users.get(piv, ())):
            row2 = self.basis[piv2]
            a, b = _cofactors(work[piv], row2[piv])
            new2 = _normalize(_combine(a, row2, b, work), piv2)
            for r in row2.keys() - new2.keys():
                if r < rowdim:
                    users[r].discard(piv2)
            for r in new2.keys() - row2.keys():
                if r < rowdim:
                    users.setdefault(r, set()).add(piv2)
            self.basis[piv2] = new2
        self.basis[piv] = work
        for r in work:
            if r < rowdim:
                users.setdefault(r, set()).add(piv)
        return True


def _cofactors(lead: int, c: int) -> tuple[int, int]:
    """The smallest (a, b) with a > 0 and a*c == b*lead, for a positive lead."""
    g = math.gcd(c, lead)
    return lead // g, c // g


def _combine(a: int, u: dict, b: int, v: dict) -> dict:
    """a*u - b*v, without zero entries."""
    out = {t: a * x for t, x in u.items()} if a != 1 else dict(u)
    for t, x in v.items():
        nx = out.get(t, 0) - b * x
        if nx:
            out[t] = nx
        else:
            del out[t]
    return out


def _normalize(row: dict[int, int], piv: int) -> dict[int, int]:
    """Divide out the content of ``row`` with the sign of its pivot entry."""
    g = math.gcd(*row.values())
    if row[piv] < 0:
        g = -g
    if g == 1:
        return row
    return {r: x // g for r, x in row.items()}


# ---------------------------------------------------------------------------
# Modular engine.


class SparseModularEliminator:
    """Sparse reduced-echelon elimination over F_p with dict rows.

    The boundary matrices of this package stay extremely sparse under
    elimination, so dictionary rows suffice.  The reduced-echelon invariant
    (rows are zero at every pivot but their own) means one pass over a
    column's support fully reduces it; ``users`` maps each coordinate to the
    rows containing it, so back-reduction touches only those rows.  ``fill``
    counts the stored basis entries.
    """

    def __init__(self, rowdim: int, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.rowdim = rowdim
        self.basis: dict[int, dict[int, int]] = {}  # pivot -> row, lead 1
        self.users: dict[int, set[int]] = {}  # coord -> pivots of rows containing it
        self.fill = 0

    @property
    def rank(self) -> int:
        return len(self.basis)

    def add_column(self, col: SparseColumn) -> bool:
        p = self.p
        work: dict[int, int] = {}
        for r, v in integer_column(col)[1]:
            x = v % p
            if x:
                work[r] = x
        basis = self.basis
        for piv in [r for r in work if r in basis]:
            c = work.pop(piv)
            for r2, v2 in basis[piv].items():
                if r2 == piv:
                    continue
                nv = (work.get(r2, 0) - c * v2) % p
                if nv:
                    work[r2] = nv
                elif r2 in work:
                    del work[r2]
        if not work:
            return False
        piv = max(work)
        inv = pow(work[piv], -1, p)
        row = {r: (v * inv) % p for r, v in work.items()}
        # back-reduce the rows that contain the new pivot
        for piv2 in list(self.users.get(piv, ())):
            row2 = basis[piv2]
            c2 = row2[piv]
            for r2, v2 in row.items():
                nv = (row2.get(r2, 0) - c2 * v2) % p
                if nv:
                    if r2 not in row2:
                        self.users.setdefault(r2, set()).add(piv2)
                        self.fill += 1
                    row2[r2] = nv
                elif r2 in row2:
                    del row2[r2]
                    self.users[r2].discard(piv2)
                    self.fill -= 1
        basis[piv] = row
        for r in row:
            self.users.setdefault(r, set()).add(piv)
        self.fill += len(row)
        return True


# ---------------------------------------------------------------------------
# Public operations.


def _checked(rows: int, columns: Iterable[SparseColumn]) -> list[SparseColumn]:
    """The columns as a list, after checking every row index against ``rows``
    and that no column repeats a row index."""
    cols = list(columns)
    if any(not 0 <= i < rows for col in cols for i, _ in col):
        raise ValueError(f"column row index out of range for {rows} rows")
    for j, col in enumerate(cols):
        if len({i for i, _ in col}) != len(col):
            raise ValueError(f"column {j} repeats a row index")
    return cols


def kernel_basis(rows: int, columns: Iterable[SparseColumn]) -> list[dict[int, int]]:
    """Exact kernel basis of the matrix; each vector a primitive integer dict
    col -> coeff, re-checked to send the columns to 0 exactly."""
    cols = _checked(rows, columns)
    elim = ExactEliminator(rows, track=True)
    kernel = [elim.relation for col in cols if not elim.add_column(col)]
    for v in kernel:
        if _image(cols, v):
            raise AssertionError("kernel vector failed exact re-check")
    return kernel


def solve(
    rows: int, columns: Iterable[SparseColumn], b: dict[int, Union[int, Fraction]]
) -> Optional[dict[int, Fraction]]:
    """Exact witness x with sum_j x[j] * columns[j] = b, re-checked, or None
    (certified by rank comparison)."""
    if any(not 0 <= i < rows for i in b):
        raise ValueError(f"right-hand side index out of range for {rows} rows")
    cols = _checked(rows, columns)
    elim = ExactEliminator(rows, track=True)
    for col in cols:
        elim.add_column(col)
    if elim.add_column(sorted(b.items())):
        return None  # rank of [m | b] is rank(m) + 1
    relation = elim.relation  # positive on b, which is fed as column len(cols)
    cb = relation.pop(len(cols))
    out = {j: Fraction(-x, cb) for j, x in relation.items()}
    if _image(cols, out) != {i: v for i, v in b.items() if v}:
        raise AssertionError("solve witness failed exact re-check")
    return out


def _image(cols: Sequence[SparseColumn], x: dict[int, Union[int, Fraction]]) -> dict[int, Union[int, Fraction]]:
    """sum_j x[j] * cols[j], without zero entries."""
    out: dict[int, Union[int, Fraction]] = {}
    for j, c in x.items():
        for i, v in cols[j]:
            out[i] = out.get(i, 0) + c * v
    return {i: v for i, v in out.items() if v}
