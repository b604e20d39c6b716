"""Sparse exact linear algebra over Q and over prime fields.

Two engines back every rank/kernel/solve in the package:

* ``ExactEliminator`` — streaming column elimination over Q.  Vectors are
  kept as integer numpy arrays with their content divided out (division-free
  elimination with gcd normalization); arithmetic silently falls back to
  Python big integers when an int64 overflow is possible, so results are
  exact for any input.  Optional combination tracking yields kernel vectors
  and solve witnesses.

* ``SparseModularEliminator`` — streaming sparse reduced-echelon elimination
  mod p with dictionary rows.  Primes are drawn from [2^29, 2^30).  Ranks
  mod p never exceed the rank over Q; agreement across two independently
  drawn primes is required before a modular rank is reported.

Column indices below refer to vectors living in F^rows; the eliminators
maintain a reduced basis of the span of the columns seen so far, so the
basis size is the rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "SparseMatrix",
    "RankCertificate",
    "CapExceededError",
    "PrimeDisagreementError",
    "DenominatorClashError",
    "ExactEliminator",
    "SparseModularEliminator",
    "rank",
    "kernel_basis",
    "solve",
    "rank_mod_p",
    "is_probable_prime",
    "draw_primes",
    "PRIME_LO",
    "PRIME_HI",
]

# Random 30-bit primes for the modular ranks.
PRIME_LO = 1 << 29
PRIME_HI = 1 << 30

_INT64_GUARD = 1 << 62
_GCD_TRIGGER = 1 << 40

SparseColumn = Sequence[tuple[int, Union[int, Fraction]]]


class CapExceededError(RuntimeError):
    """A configured size cap was exceeded; message names the offending sizes."""


class PrimeDisagreementError(RuntimeError):
    """Modular ranks disagreed across primes; reported instead of guessed."""


class DenominatorClashError(ArithmeticError):
    """A prime divides a denominator of the input; re-run with a new prime."""


# ---------------------------------------------------------------------------
# Primes.

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the sizes used here (n < 3.4e14)."""
    if n < 2:
        return False
    for sp in _MR_WITNESSES:
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def draw_primes(
    rng,
    count: int,
    *,
    lo: int = PRIME_LO,
    hi: int = PRIME_HI,
    exclude_below: int = 0,
    exclude: Sequence[int] = (),
) -> list[int]:
    """Distinct random primes from [lo, hi), reproducible from the rng state."""
    out: list[int] = []
    banned = set(exclude)
    while len(out) < count:
        c = rng.randrange(lo | 1, hi, 2)
        if c <= exclude_below or c in banned or not is_probable_prime(c):
            continue
        banned.add(c)
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# Public matrix type.


class SparseMatrix:
    """Sparse matrix over Q (field=None) or F_p (field=p); no stored zeros."""

    def __init__(self, rows: int, cols: int, entries=None, field: Optional[int] = None):
        self.rows = rows
        self.cols = cols
        self.field = field
        self.entries: dict[tuple[int, int], Union[int, Fraction]] = {}
        if entries:
            for (i, j), v in (entries.items() if isinstance(entries, dict) else entries):
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) out of range {rows}x{cols}")
                if field is not None:
                    v = int(v) % field
                if v:
                    self.entries[(i, j)] = v

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def get(self, i: int, j: int):
        return self.entries.get((i, j), 0)

    def columns(self) -> list[list[tuple[int, Union[int, Fraction]]]]:
        cols: list[list[tuple[int, Union[int, Fraction]]]] = [[] for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j].append((i, v))
        for col in cols:
            col.sort()
        return cols

    def matvec(self, vec: dict[int, Union[int, Fraction]]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for (i, j), v in self.entries.items():
            c = vec.get(j)
            if c:
                out[i] = out.get(i, Fraction(0)) + Fraction(v) * c
        return {i: v for i, v in out.items() if v}

    @classmethod
    def identity(cls, n: int, field: Optional[int] = None) -> "SparseMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)}, field)

    def __repr__(self) -> str:
        f = "Q" if self.field is None else f"F_{self.field}"
        return f"SparseMatrix({self.rows}x{self.cols} over {f}, nnz={self.nnz})"


@dataclass
class RankCertificate:
    rank: int
    field: str  # "Q" or "Fp"
    method: str  # "exact" | "modular"
    primes_used: list[int] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "field": self.field,
            "method": self.method,
            "primes_used": list(self.primes_used),
        }


# ---------------------------------------------------------------------------
# Exact engine.


def _gcd_reduce_int64(v: np.ndarray) -> np.ndarray:
    g = int(np.gcd.reduce(np.abs(v)))
    if g > 1:
        v //= g
    return v


class ExactEliminator:
    """Streaming reduced column elimination over Q with exact integer rows.

    Columns are fed one at a time; the reduced basis of their span is
    maintained in reduced-echelon form (each basis vector positive-primitive,
    zero at all other pivots).  With ``track=True`` every stored vector v
    carries the exact rational combination of original columns with
    sum(combo[t] * column_t) == v, which yields kernel vectors and solve
    witnesses.
    """

    def __init__(self, rowdim: int, *, track: bool = False):
        self.rowdim = rowdim
        self.track = track
        self.basis: list[np.ndarray] = []
        self.pivots: list[int] = []
        self.combos: list[dict] = []
        self.kernel_combos: list[dict] = []

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _to_vec(self, col: SparseColumn) -> tuple[np.ndarray, int]:
        """Dense integer vector (column scaled by its denominator lcm)."""
        lcm = 1
        for _, v in col:
            if isinstance(v, Fraction):
                lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
        values = [
            (i, int(v * lcm) if isinstance(v, Fraction) else int(v) * lcm) for i, v in col
        ]
        if any(abs(x) >= _INT64_GUARD for _, x in values):
            vo = np.zeros(self.rowdim, dtype=object)
            for i, x in values:
                vo[i] = vo[i] + x if vo[i] else x
            return vo, lcm
        v = np.zeros(self.rowdim, dtype=np.int64)
        for i, x in values:
            v[i] += x
        return v, lcm

    def _axpy(self, a: int, v: np.ndarray, b: int, w: np.ndarray) -> np.ndarray:
        """a*v - b*w with overflow-safe dtype promotion (no hidden scaling)."""
        if v.dtype == np.int64 and w.dtype == np.int64:
            mv = int(np.abs(v).max()) if v.size else 0
            mw = int(np.abs(w).max()) if w.size else 0
            if abs(a) * mv + abs(b) * mw < _INT64_GUARD:
                return a * v - b * w
        vo = v.astype(object) if v.dtype == np.int64 else v
        wo = w.astype(object) if w.dtype == np.int64 else w
        return a * vo - b * wo

    def _normalize(self, v: np.ndarray, combo: Optional[dict]) -> tuple[np.ndarray, Optional[dict]]:
        """Divide out content and make the first nonzero positive; mirror combo."""
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return v, combo
        if v.dtype == np.int64:
            g = int(np.gcd.reduce(np.abs(v[nz])))
        else:
            g = 0
            for i in nz:
                g = math.gcd(g, abs(int(v[i])))
                if g == 1:
                    break
        sign = -1 if int(v[nz[0]]) < 0 else 1
        factor = sign * g
        if factor != 1:
            if v.dtype == np.int64:
                v = v // factor
            else:
                v = np.array([int(x) // factor for x in v], dtype=object)
            if combo is not None:
                combo = {t: x / factor for t, x in combo.items()}
        return v, combo

    def add_column(self, col: SparseColumn, tag=None) -> bool:
        """Feed a column; returns True if it enlarged the span (new pivot)."""
        v, lcm = self._to_vec(col)
        combo: Optional[dict] = {tag: Fraction(lcm)} if self.track else None
        for k in range(len(self.basis)):
            piv = self.pivots[k]
            c = int(v[piv])
            if c == 0:
                continue
            lead = int(self.basis[k][piv])
            g = math.gcd(abs(c), lead)
            a, b = lead // g, c // g
            v = self._axpy(a, v, b, self.basis[k])
            if self.track:
                combo = {t: a * x for t, x in combo.items()}
                for t, x in self.combos[k].items():
                    combo[t] = combo.get(t, Fraction(0)) - b * x
            else:
                # untracked: content reduction is free to happen any time
                if v.dtype == np.int64:
                    m = int(np.abs(v).max()) if v.size else 0
                    if m > _GCD_TRIGGER:
                        v = _gcd_reduce_int64(v)

        if not np.any(v):
            if self.track:
                self.kernel_combos.append({t: x for t, x in combo.items() if x})
            return False

        v, combo = self._normalize(v, combo)
        piv = int(np.nonzero(v)[0][0])
        lead = int(v[piv])
        # Back-reduce existing basis vectors at the new pivot.
        for j in range(len(self.basis)):
            cj = int(self.basis[j][piv])
            if cj == 0:
                continue
            g = math.gcd(abs(cj), lead)
            a, b = lead // g, cj // g
            newrow = self._axpy(a, self.basis[j], b, v)
            newcombo = None
            if self.track:
                newcombo = {t: a * x for t, x in self.combos[j].items()}
                for t, x in combo.items():
                    newcombo[t] = newcombo.get(t, Fraction(0)) - b * x
            newrow, newcombo = self._normalize(newrow, newcombo)
            self.basis[j] = newrow
            if self.track:
                self.combos[j] = newcombo
        self.basis.append(v)
        self.pivots.append(piv)
        if self.track:
            self.combos.append(combo)
        return True

    def kernel_vectors(self) -> list[dict]:
        """Primitive integer kernel combinations (column tag -> int)."""
        out = []
        for combo in self.kernel_combos:
            lcm = 1
            for x in combo.values():
                lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
            ints = {t: int(x * lcm) for t, x in combo.items() if x}
            g = 0
            for x in ints.values():
                g = math.gcd(g, abs(x))
            if g > 1:
                ints = {t: x // g for t, x in ints.items()}
            out.append(ints)
        return out


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
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.rowdim = rowdim
        self.basis: dict[int, dict[int, int]] = {}  # pivot -> row, lead 1
        self.users: dict[int, set[int]] = {}  # coord -> pivots of rows containing it
        self.fill = 0

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def saturated(self) -> bool:
        return self.rank >= self.rowdim

    def add_column(self, col: SparseColumn) -> bool:
        p = self.p
        work: dict[int, int] = {}
        for r, v in col:
            if isinstance(v, Fraction):
                if v.denominator % p == 0:
                    raise DenominatorClashError(f"prime {p} divides a denominator")
                x = v.numerator * pow(v.denominator, -1, p) % p
            else:
                x = int(v) % p
            if x:
                work[r] = x
        basis = self.basis
        hits = [piv for piv in work if piv in basis]
        for piv in sorted(hits):
            c = work.pop(piv, 0)
            if not c:
                continue
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
        piv = min(work)
        inv = pow(work[piv], -1, p)
        row = {r: (v * inv) % p for r, v in work.items()}
        # back-reduce the rows that contain the new pivot
        for piv2 in list(self.users.get(piv, ())):
            row2 = basis[piv2]
            c2 = row2.get(piv)
            if not c2:
                continue
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

    def process_sparse_columns(self, cols: Iterable[SparseColumn]) -> None:
        """Feed columns in order, stopping early once the rank saturates."""
        for col in cols:
            self.add_column(col)
            if self.saturated:
                return


# ---------------------------------------------------------------------------
# Public operations.


def rank_mod_p(m: SparseMatrix, p: int) -> int:
    elim = SparseModularEliminator(m.rows if m.rows else 1, p)
    elim.process_sparse_columns(m.columns())
    return elim.rank


def rank(
    m: SparseMatrix,
    *,
    cap_exact: int = 10_000,
    primes: Optional[Sequence[int]] = None,
    rng=None,
) -> RankCertificate:
    """Exact rank when within the cap, two-prime modular otherwise."""
    if m.cols <= cap_exact:
        elim = ExactEliminator(m.rows if m.rows else 1)
        for col in m.columns():
            elim.add_column(col)
        return RankCertificate(elim.rank, "Q", "exact")
    if primes is None:
        import random

        rng = rng or random.Random(0)
        primes = draw_primes(rng, 2)
    ranks = {p: rank_mod_p(m, p) for p in primes}
    vals = set(ranks.values())
    if len(vals) != 1:
        raise PrimeDisagreementError(f"modular ranks disagree: {ranks}")
    return RankCertificate(vals.pop(), "Fp", "modular", list(primes))


def kernel_basis(m: SparseMatrix) -> list[dict[int, int]]:
    """Exact kernel basis; each vector a primitive integer dict col -> coeff.

    Every returned v satisfies m·v = 0 exactly (re-checked here).
    """
    elim = ExactEliminator(m.rows if m.rows else 1, track=True)
    for j, col in enumerate(m.columns()):
        elim.add_column(col, tag=j)
    vecs = elim.kernel_vectors()
    for v in vecs:
        image = m.matvec({j: Fraction(c) for j, c in v.items()})
        if image:
            raise AssertionError("kernel vector failed exact re-check")
    return vecs


def solve(m: SparseMatrix, b: dict[int, Union[int, Fraction]]) -> Optional[dict[int, Fraction]]:
    """Exact witness x with m·x = b, or None (certified by rank comparison)."""
    elim = ExactEliminator(m.rows if m.rows else 1, track=True)
    for j, col in enumerate(m.columns()):
        elim.add_column(col, tag=j)
    rank_plain = elim.rank
    was_new = elim.add_column(sorted(b.items()), tag="rhs")
    if was_new:
        return None  # rank of [m | b] is rank(m) + 1
    combo = elim.kernel_combos[-1]
    cb = combo.get("rhs")
    if not cb:
        return None
    out = {j: -x / cb for j, x in combo.items() if j != "rhs" and x}
    # exact re-check
    image = m.matvec(out)
    want = {i: Fraction(v) for i, v in b.items() if v}
    if image != want:
        raise AssertionError("solve witness failed exact re-check")
    return out
