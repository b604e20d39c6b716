"""Loday (Leibniz) and Chevalley-Eilenberg chain complexes as boundary operators.

The Loday boundary on the k-th tensor power of an algebra is

    d(h_1 ⊗ ... ⊗ h_k) = sum_{i<j} (-1)^j  h_1 ⊗ ... ⊗ [h_i,h_j]_i ⊗ ... ^h_j ... ⊗ h_k

(the bracket replaces the i-th factor, the j-th is removed, j counted from 1);
the degree-1 boundary is the zero map to the ground field.  The CE boundary
with coefficients in a right module M is

    d(m ⊗ x_1 ∧ ... ∧ x_k) = sum_i (-1)^i [m, x_i] ⊗ ... ^x_i ...
        + sum_{i<j} (-1)^(i+j) m ⊗ [x_i,x_j] ∧ ... ^x_i ... ^x_j ...

Both are implemented matrix-free on words; matrices are materialized only on
demand.  For algebras graded by translation count (weight 1 on the abelian
part, 0 on so(p,q); brackets are weight-additive) every tensor power splits
into weight blocks preserved by the Loday boundary, and ranks/solves are
performed block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .liealg import Coeff, LieAlgebra
from .linalg import CapExceededError, SparseMatrix
from .repspace import (
    Chain,
    Space,
    SpaceMismatchError,
    _colex_rank,
    _colex_unrank,
    _perm_sign,
    mixed_space,
    sort_wedge,
    tensor_space,
)

__all__ = [
    "TensorWeightBlock",
    "BoundaryBlock",
    "LodayBoundary",
    "CEBoundary",
    "loday_boundary",
    "ce_boundary",
    "wedge_boundary",
    "is_cycle",
    "is_boundary",
    "embed_mixed_in_tensor",
    "check_dd_zero",
]

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# Weight-block word indexing for tensor powers of a graded algebra.


class TensorWeightBlock:
    """Words of the k-th tensor power with exactly w weight-1 factors.

    Rank order: colex rank of the set of weight-1 positions, then the
    mixed-radix codes of the weight-1 and weight-0 factor tuples.  With
    ``w=None`` the grading is ignored: every factor counts as weight 0, so
    the block is the whole tensor power in plain mixed-radix order.
    """

    def __init__(self, algebra: LieAlgebra, k: int, w: Optional[int]):
        self.algebra = algebra
        self.k = k
        self.w = w
        self._wts = algebra.weights if w is not None else (0,) * algebra.dim
        self._nw = w if w is not None else 0
        self._ones = [i for i, wt in enumerate(self._wts) if wt == 1]
        self._zeros = [i for i, wt in enumerate(self._wts) if wt == 0]
        self._one_pos = {idx: t for t, idx in enumerate(self._ones)}
        self._zero_pos = {idx: t for t, idx in enumerate(self._zeros)}
        self._nt = len(self._ones) ** self._nw
        self._ns = len(self._zeros) ** max(k - self._nw, 0)
        self.count = math.comb(k, self._nw) * self._nt * self._ns

    def rank(self, word: Word) -> int:
        wts = self._wts
        positions = [t for t, idx in enumerate(word) if wts[idx] == 1]
        rt = 0
        for t in positions:
            rt = rt * len(self._ones) + self._one_pos[word[t]]
        rs = 0
        for idx in word:
            if wts[idx] == 0:
                rs = rs * len(self._zeros) + self._zero_pos[idx]
        return (_colex_rank(positions) * self._nt + rt) * self._ns + rs

    def unrank(self, r: int) -> Word:
        r, rs = divmod(r, self._ns)
        sub, rt = divmod(r, self._nt)
        tvals = []
        for _ in range(self._nw):
            rt, c = divmod(rt, len(self._ones))
            tvals.append(self._ones[c])
        svals = []
        for _ in range(self.k - self._nw):
            rs, c = divmod(rs, len(self._zeros))
            svals.append(self._zeros[c])
        # both lists were filled last factor first
        posset = set(_colex_unrank(sub, self._nw))
        return tuple(
            tvals.pop() if t in posset else svals.pop() for t in range(self.k)
        )


@dataclass
class BoundaryBlock:
    """One weight block of a degree-k boundary: columns indexed by the degree-k
    block, rows by the degree-(k-1) block of the same weight."""

    weight: Optional[int]
    rows: int
    cols: int
    colspace: TensorWeightBlock
    rowspace: TensorWeightBlock
    word_boundary: Callable[[Word], dict[Word, int]]

    def column(self, j: int) -> list[tuple[int, int]]:
        out = self.word_boundary(self.colspace.unrank(j))
        return sorted((self.rowspace.rank(w), v) for w, v in out.items())

    def columns(self) -> Iterator[list[tuple[int, int]]]:
        for j in range(self.cols):
            yield self.column(j)

    def csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, rowidx, values) arrays for the whole block."""
        indptr = np.zeros(self.cols + 1, dtype=np.int64)
        rows_acc: list[np.ndarray] = []
        vals_acc: list[np.ndarray] = []
        nnz = 0
        for j in range(self.cols):
            col = self.column(j)
            nnz += len(col)
            indptr[j + 1] = nnz
            if col:
                rows_acc.append(np.fromiter((r for r, _ in col), dtype=np.int64, count=len(col)))
                vals_acc.append(np.fromiter((v for _, v in col), dtype=np.int64, count=len(col)))
        rowidx = np.concatenate(rows_acc) if rows_acc else np.zeros(0, dtype=np.int64)
        values = np.concatenate(vals_acc) if vals_acc else np.zeros(0, dtype=np.int64)
        return indptr, rowidx, values


# ---------------------------------------------------------------------------
# Loday boundary.


class LodayBoundary:
    """The Loday boundary of an algebra, matrix-free with optional blocks."""

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra

    def space(self, k: int) -> Space:
        return tensor_space(self.algebra, k)

    def word_boundary(self, word: Word) -> dict[Word, int]:
        if len(word) <= 1:
            return {}
        out: dict[Word, int] = {}
        bracket = self.algebra.bracket
        for j in range(1, len(word)):
            sign = -1 if (j + 1) % 2 else 1  # (-1)^(j+1) for 1-based j+1
            rest = word[:j] + word[j + 1 :]
            for i in range(j):
                vec = bracket(word[i], word[j])
                if not vec:
                    continue
                for c, s in vec.items():
                    new = rest[:i] + (c,) + rest[i + 1 :]
                    v = out.get(new, 0) + sign * s
                    if v:
                        out[new] = v
                    elif new in out:
                        del out[new]
        return out

    def apply(self, chain: Chain) -> Chain:
        space = chain.space
        if space.kind != "tensor" or space.algebra is not self.algebra:
            raise SpaceMismatchError("Loday boundary expects tensor chains of its algebra")
        k = space.degree
        target = tensor_space(self.algebra, k - 1 if k else 0, space.factors)
        if k <= 1:
            return target.zero()
        out: dict[Word, Fraction] = {}
        for word, coeff in chain.coeffs.items():
            for new, v in self.word_boundary(word).items():
                out[new] = out.get(new, Fraction(0)) + coeff * v
        # boundary words may leave a restricted factor set; land in the full power
        if space.factors != tuple(range(self.algebra.dim)):
            target = tensor_space(self.algebra, k - 1)
        return Chain(target, {w: c for w, c in out.items() if c})

    def weights_available(self) -> bool:
        return self.algebra.weights is not None

    def blocks(self, k: int) -> list[BoundaryBlock]:
        """Weight blocks of d_k (a single full block when the algebra is ungraded)."""
        if k < 1:
            return []
        if k == 1:
            # d_1 is the zero map to the ground field
            col = TensorWeightBlock(self.algebra, 1, None)
            row = TensorWeightBlock(self.algebra, 0, None)
            return [
                BoundaryBlock(None, 1, self.algebra.dim, col, row, lambda w: {})
            ]
        if not self.weights_available():
            col = TensorWeightBlock(self.algebra, k, None)
            row = TensorWeightBlock(self.algebra, k - 1, None)
            return [
                BoundaryBlock(None, row.count, col.count, col, row, self.word_boundary)
            ]
        out = []
        for w in range(k + 1):
            col = TensorWeightBlock(self.algebra, k, w)
            if col.count == 0:
                continue
            row = TensorWeightBlock(self.algebra, k - 1, w)
            out.append(
                BoundaryBlock(w, row.count, col.count, col, row, self.word_boundary)
            )
        return out

    def matrix(self, k: int, cap: int = 200_000) -> SparseMatrix:
        """The degree-k boundary as a sparse matrix (rows: degree k-1 words)."""
        space = self.space(k)
        rows = self.algebra.dim ** (k - 1) if k >= 2 else 1
        if space.dim > cap:
            raise CapExceededError(f"boundary matrix at degree {k} has {space.dim} columns, cap {cap}")
        entries: dict[tuple[int, int], int] = {}
        if k >= 2:
            rowspace = self.space(k - 1)
            for j in range(space.dim):
                for w, v in self.word_boundary(space.unrank_word(j)).items():
                    entries[(rowspace.rank_word(w), j)] = v
        return SparseMatrix(rows, space.dim, entries)


def loday_boundary(algebra: LieAlgebra, k: int) -> LodayBoundary:
    """The Loday boundary operator; ``k`` documents the intended degree."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    return LodayBoundary(algebra)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg boundary with coefficients.


class CEBoundary:
    """CE boundary on M ⊗ Λ^k g inside one ambient algebra.

    ``lead`` spans the coefficient module M, ``wedge`` the acting subalgebra
    g; both are ambient basis index sets.  Module validity ([g,g] within g,
    [M,g] within M) is checked at construction and violations name the pair.
    """

    def __init__(self, algebra: LieAlgebra, lead: Sequence[int], wedge: Sequence[int]):
        self.algebra = algebra
        self.lead = tuple(lead)
        self.wedge = tuple(wedge)
        lead_set, wedge_set = set(self.lead), set(self.wedge)
        for a in self.wedge:
            for b in self.wedge:
                for c in algebra.bracket(a, b):
                    if c not in wedge_set:
                        raise SpaceMismatchError(
                            f"[{algebra.labels[a]}, {algebra.labels[b]}] leaves the wedge subalgebra"
                        )
        from .liealg import ModuleLawError

        for m in self.lead:
            for x in self.wedge:
                for c in algebra.bracket(m, x):
                    if c not in lead_set:
                        raise ModuleLawError(
                            (algebra.labels[m], algebra.labels[x]),
                            "coefficient module is not closed under the action",
                        )

    def space(self, k: int) -> Space:
        return mixed_space(self.algebra, k, lead=self.lead, factors=self.wedge)

    def word_boundary(self, word: Word) -> dict[Word, Coeff]:
        m, tail = word[0], word[1:]
        out: dict[Word, Coeff] = {}

        def add(w: Word, v: Coeff) -> None:
            nv = out.get(w, 0) + v
            if nv:
                out[w] = nv
            elif w in out:
                del out[w]

        for i in range(len(tail)):
            sign = -1 if (i + 1) % 2 else 1  # (-1)^(i+1) with 1-based i
            rest = tail[:i] + tail[i + 1 :]
            for c, s in self.algebra.bracket(m, tail[i]).items():
                add((c,) + rest, sign * s)
        for i in range(len(tail)):
            for j in range(i + 1, len(tail)):
                sign = 1 if (i + j) % 2 == 0 else -1  # (-1)^(i+1 + j+1)
                rest = tuple(t for t2, t in enumerate(tail) if t2 not in (i, j))
                for c, s in self.algebra.bracket(tail[i], tail[j]).items():
                    neww, sgn = sort_wedge((c,) + rest)
                    if sgn:
                        add((m,) + neww, sign * s * sgn)
        return out

    def apply(self, chain: Chain) -> Chain:
        space = chain.space
        if space.kind != "mixed" or space.algebra is not self.algebra:
            raise SpaceMismatchError("CE boundary expects mixed chains of its algebra")
        target = self.space(space.degree - 1 if space.degree else 0)
        if space.degree == 0:
            return target.zero()
        out: dict[Word, Fraction] = {}
        for word, coeff in chain.coeffs.items():
            for new, v in self.word_boundary(word).items():
                out[new] = out.get(new, Fraction(0)) + coeff * v
        return Chain(target, {w: c for w, c in out.items() if c})


def ce_boundary(
    algebra: LieAlgebra,
    coefficients: Optional[Sequence[int]],
    k: int,
    wedge: Optional[Sequence[int]] = None,
) -> CEBoundary:
    """CE boundary operator for M ⊗ Λ^k g.

    ``coefficients``: ambient indices spanning M (defaults to the whole
    algebra); ``wedge``: indices spanning g (defaults to the translations).
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    if wedge is None:
        wedge = algebra.translation_indices or tuple(range(algebra.dim))
    if coefficients is None:
        coefficients = tuple(range(algebra.dim))
    return CEBoundary(algebra, coefficients, wedge)


def wedge_boundary(chain: Chain) -> Chain:
    """Trivial-coefficient CE boundary on Λ^k g (g = the chain's factor set)."""
    space = chain.space
    if space.kind != "wedge":
        raise SpaceMismatchError("wedge_boundary expects a wedge chain")
    alg = space.algebra
    target = Space(alg, "wedge", space.degree - 1 if space.degree else 0, space.factors)
    out: dict[Word, Fraction] = {}
    for word, coeff in chain.coeffs.items():
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                sign = 1 if (i + j) % 2 == 0 else -1
                rest = tuple(t for t2, t in enumerate(word) if t2 not in (i, j))
                for c, s in alg.bracket(word[i], word[j]).items():
                    neww, sgn = sort_wedge((c,) + rest)
                    if sgn:
                        out[neww] = out.get(neww, Fraction(0)) + coeff * sign * s * sgn
    return Chain(target, {w: c for w, c in out.items() if c})


# ---------------------------------------------------------------------------
# Cycle / boundary queries (Loday complex).


def _boundary_for(chain: Chain):
    if chain.space.kind == "tensor":
        return LodayBoundary(chain.space.algebra).apply
    if chain.space.kind == "mixed":
        return CEBoundary(chain.space.algebra, chain.space.lead, chain.space.factors).apply
    return wedge_boundary


def is_cycle(chain: Chain) -> bool:
    """d(chain) == 0 exactly, in the complex the chain's space belongs to."""
    return _boundary_for(chain)(chain).is_zero()


def is_boundary(chain: Chain, *, cap_exact: int = 20_000) -> Optional[Chain]:
    """Exact witness x with d(x) = chain, or None (certified infeasible).

    Restricted to tensor chains (the Loday complex).  The solve runs per
    weight block of degree k+1 when the algebra is graded, which keeps the
    column counts small; a block exceeding ``cap_exact`` raises.
    """
    if chain.space.kind != "tensor":
        raise SpaceMismatchError("is_boundary expects a tensor chain")
    alg = chain.space.algebra
    k = chain.space.degree
    op = LodayBoundary(alg)
    if chain.is_zero():
        return tensor_space(alg, k + 1).zero()
    blocks = {b.weight: b for b in op.blocks(k + 1)}

    def weight_of(word: Word) -> Optional[int]:
        if alg.weights is None:
            return None
        return sum(alg.weights[i] for i in word)

    by_weight: dict[Optional[int], dict[Word, Fraction]] = {}
    for w, c in chain.coeffs.items():
        by_weight.setdefault(weight_of(w), {})[w] = c

    witness: dict[Word, Fraction] = {}
    for wt, coeffs in sorted(by_weight.items(), key=lambda t: (t[0] is None, t[0])):
        block = blocks.get(wt)
        if block is None or block.cols == 0:
            return None  # no columns can hit this component
        if block.cols > cap_exact:
            raise CapExceededError(
                f"exact solve block (weight {wt}) has {block.cols} columns, cap {cap_exact}"
            )
        from .linalg import solve as linalg_solve

        m = SparseMatrix(
            block.rows,
            block.cols,
            {
                (r, j): v
                for j in range(block.cols)
                for r, v in block.column(j)
            },
        )
        b = {block.rowspace.rank(w): c for w, c in coeffs.items()}
        x = linalg_solve(m, b)
        if x is None:
            return None
        for j, val in x.items():
            witness[block.colspace.unrank(j)] = val
    out = Chain(tensor_space(alg, k + 1), witness)
    if op.apply(out) != Chain(tensor_space(alg, k), dict(chain.coeffs)):
        raise AssertionError("boundary witness failed exact re-check")
    return out


def embed_mixed_in_tensor(chain: Chain) -> Chain:
    """Embed lead ⊗ (wedge tail) into the full tensor power: the tail is
    antisymmetrized with prefactor 1/k! (so X ⊗ a∧b becomes X ⊗ (a⊗b - b⊗a)/2)."""
    import itertools

    if chain.space.kind != "mixed":
        raise SpaceMismatchError("embed_mixed_in_tensor expects a mixed chain")
    alg = chain.space.algebra
    k = chain.space.degree
    target = tensor_space(alg, k + 1)
    pref = Fraction(1, math.factorial(k))
    out: dict[Word, Fraction] = {}
    for word, coeff in chain.coeffs.items():
        lead, tail = word[0], word[1:]
        for perm in itertools.permutations(range(k)):
            sgn = _perm_sign(perm)
            new = (lead,) + tuple(tail[t] for t in perm)
            out[new] = out.get(new, Fraction(0)) + coeff * pref * sgn
    return Chain(target, {w: c for w, c in out.items() if c})


def check_dd_zero(apply_fn, make_chain, degrees: Iterable[int], rng, count: int = 100) -> None:
    """d∘d = 0 on ``count`` random chains per degree; raises on any failure."""
    for k in degrees:
        for _ in range(count):
            chain = make_chain(k, rng)
            if not apply_fn(apply_fn(chain)).is_zero():
                raise AssertionError(f"d∘d != 0 on a degree-{k} chain: {chain}")
