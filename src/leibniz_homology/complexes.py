"""Loday (Leibniz) and Chevalley-Eilenberg chain complexes as boundary operators.

The Loday boundary on the k-th tensor power of an algebra is

    d(h_1 ⊗ ... ⊗ h_k) = sum_{i<j} (-1)^j  h_1 ⊗ ... ⊗ [h_i,h_j]_i ⊗ ... ^h_j ... ⊗ h_k

(the bracket replaces the i-th factor, the j-th is removed, j counted from 1);
the degree-1 boundary is the zero map to the ground field.  The CE boundary
with coefficients in a right module M is

    d(m ⊗ x_1 ∧ ... ∧ x_k) = sum_i (-1)^i [m, x_i] ⊗ ... ^x_i ...
        + sum_{i<j} (-1)^(i+j) m ⊗ [x_i,x_j] ∧ ... ^x_i ... ^x_j ...

and with trivial coefficients it is the wedge boundary on Λ^k g alone.

All three are implemented matrix-free on words and share one interface:
``space(k)`` (the degree-k chain space), ``dim(k)`` (the number of its
words that are ranked), ``word_boundary(word)``, ``apply(chain)`` (its
linear extension, ``Chain.map``) and ``blocks(k)``, the ``BoundaryBlock``s
whose ranks add up to the rank of d_k.  Every algebra is graded by
(translation count, torus weights if any, parity bitmask) (``LieAlgebra``);
brackets add counts and weights and XOR parities, so the Loday boundary
preserves the grade of a word and d_k splits into one block per grade of
the degree-k words, each indexed by a ``GradeBlock``; its ranks and solves
run block by block.  A Loday boundary built with ``keep`` has only the
blocks of the grades it lists, and its ``dim`` counts their words.  Built
with ``symmetries`` as well, a finite group G of signed letter
permutations that are automorphisms of the algebra and fix every kept
grade, it has the orbit sums of those blocks instead (``OrbitBlock``): G
commutes with d, so over Q the average over G is a chain projection onto
them, and when G acts trivially on homology they carry all of it.  An
orbit whose stabiliser acts by -1 sums to 0 and is dropped.  The column of
an orbit is the boundary of its lex-least word with every term replaced by
± its representative: the matrix of d on the orbit sums up to positive
row and column scales (stabiliser orders), so it has the same rank.
A block's column is ``ranked`` by its row index: the boundary of the
column's word, each term ranked and the pairs sorted; on an orbit block
each term goes through ``OrbitBlock.canonical`` to its representative's
rank with its sign, in the same pass.  A Loday boundary reads its brackets
from a table by letter that it builds from ``algebra.structure`` when it is
built, so it keeps the constants the algebra had then.
``is_boundary`` solves on such orbit blocks too, under the signed
coordinate rotations that fix its chain.  A CE boundary has one block per
degree, its whole chain space.
Degrees below 2 of the Loday complex and degree 0 of a CE complex have no
blocks.  A block is its row count and its columns, sorted ``(row, value)``
lists: the one matrix format of ``linalg``, which its rank engines and
solves read.  ``columns()`` streams them to every rank and solve.  ``csc()``
lists them, but no package code calls it: it stays only because
``benchmark/tracing.py`` wraps it by name.  No other form of a boundary
matrix is ever built.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from ._value import Value
from .liealg import Coeff, Grade, LieAlgebra, ModuleLawError, _perm_sign, accumulate
from .linalg import DEFAULT_CAP_EXACT, CapExceededError, solve
from .repspace import (
    CHAIN_COEFFS,
    CHAIN_TERMS,
    Chain,
    GradeBlock,
    OrbitBlock,
    OrbitGroup,
    Space,
    SpaceMismatchError,
    Symmetry,
    graded_words,
    mixed_space,
    sort_wedge,
    tensor_space,
)

__all__ = [
    "BoundaryBlock",
    "LodayBoundary",
    "CEBoundary",
    "WedgeBoundary",
    "is_cycle",
    "is_boundary",
    "embed_mixed_in_tensor",
    "check_dd_zero",
]

DD_CHECKS = 100  # random chains of columns per degree in the sampled d∘d = 0 check

Word = tuple[int, ...]
Column = list[tuple[int, Coeff]]  # sorted (row, value) pairs of one boundary column
WordIndex = Union[GradeBlock, OrbitBlock, Space]


class BoundaryBlock(Value):
    """One block of a degree-k boundary: columns indexed by ``colspace``
    (degree k), rows by ``rowspace`` (degree k-1).  ``grade`` is the grade
    of a Loday block; a CE block spans its whole chain space and has None."""

    __slots__ = ("grade", "colspace", "rowspace", "word_boundary")
    _fields = __slots__

    def __init__(
        self, grade: Optional[Grade], colspace: WordIndex, rowspace: WordIndex,
        word_boundary: Callable[[Word], dict[Word, Coeff]],
    ) -> None:
        self.grade = grade
        self.colspace = colspace
        self.rowspace = rowspace
        self.word_boundary = word_boundary

    @property
    def rows(self) -> int:
        return self.rowspace.dim

    @property
    def cols(self) -> int:
        return self.colspace.dim

    def column(self, j: int) -> Column:
        return self.rowspace.ranked(self.word_boundary(self.colspace.unrank_word(j)))

    def columns(self) -> Iterator[Column]:
        return map(self.column, range(self.cols))

    def csc(self) -> list[Column]:
        """Every column of the block, generated once.  No package code calls
        it; it stays only because ``benchmark/tracing.py`` wraps it by name."""
        return list(self.columns())


class _Boundary:
    """What the boundary operators share, given ``space(k)`` and
    ``word_boundary``: ``apply`` on chains of ``kind``, and by default one
    block per degree k >= 1, its whole chain space, and ``dim`` its size."""

    kind: str
    algebra: LieAlgebra

    def apply(self, chain: Chain) -> Chain:
        space = chain.space
        if space.kind != self.kind or space.algebra is not self.algebra:
            raise SpaceMismatchError(
                f"{type(self).__name__} expects {self.kind} chains of its algebra"
            )
        return chain.map(self.word_boundary, self.space(max(space.degree - 1, 0)))

    def dim(self, k: int) -> int:
        return self.space(k).dim

    def blocks(self, k: int) -> list[BoundaryBlock]:
        if k < 1:
            return []
        return [BoundaryBlock(None, self.space(k), self.space(k - 1), self.word_boundary)]


# ---------------------------------------------------------------------------
# Loday boundary.


class LodayBoundary(_Boundary):
    """The Loday boundary of an algebra, matrix-free, with grade blocks.

    ``apply`` also takes chains of a tensor power restricted to some factors;
    their boundary words may leave that set, so the image lies in the full
    power.  With ``keep``, ``keep(k)`` lists the grades to rank in degree k
    and ``blocks`` and ``dim`` see only those with words, so the word index
    counts only them and the grades they reach.  With ``symmetries``, a
    group of signed letter permutations that commutes with the boundary and
    fixes every kept grade, they see the subcomplex of orbit sums
    (``OrbitBlock``): a block's column is the boundary of an orbit's
    representative, each term replaced by its representative with its sign.
    ``apply`` and ``space`` still cover the whole complex.

    The boundary reads ``algebra.structure`` once, when it is built, into a
    table by letter that ``word_boundary`` reads: a change to the algebra's
    constants after that is not seen, and a boundary built afterwards (on a
    changed ``copy()``, say) reads the new ones.
    """

    kind = "tensor"

    def __init__(
        self,
        algebra: LieAlgebra,
        keep: Optional[Callable[[int], Iterable[Grade]]] = None,
        symmetries: Optional[Sequence[Symmetry]] = None,
    ):
        self.algebra = algebra
        self.keep = keep
        self.symmetries = None if symmetries is None else OrbitGroup(symmetries)
        self._indices: dict[tuple[int, Grade], WordIndex] = {}
        # _brackets[b][a]: the (c, s) terms of [e_a, e_b]
        self._brackets: list[list[tuple[tuple[int, Coeff], ...]]] = [
            [()] * algebra.dim for _ in range(algebra.dim)
        ]
        for (a, b), vec in algebra.structure.items():
            self._brackets[b][a] = tuple(vec.items())

    def space(self, k: int) -> Space:
        return tensor_space(self.algebra, k)

    def word_boundary(self, word: Word) -> dict[Word, Coeff]:
        out: dict[Word, Coeff] = {}
        for j in range(1, len(word)):
            sign = -1 if (j + 1) % 2 else 1  # (-1)^(j+1) for 1-based j+1
            brackets = self._brackets[word[j]]
            rest = None
            for i in range(j):
                terms = brackets[word[i]]
                if not terms:
                    continue
                if rest is None:
                    rest = word[:j] + word[j + 1 :]
                for c, s in terms:
                    new = rest[:i] + (c,) + rest[i + 1 :]
                    v = out.get(new, 0) + sign * s
                    if v:
                        out[new] = v
                    elif new in out:
                        del out[new]
        return out

    def _grades(self, k: int) -> list[Grade]:
        words = graded_words(self.algebra.grades)
        listed = words.grades_of_length(k) if self.keep is None else self.keep(k)
        return sorted(g for g in listed if words.count(k, g))

    def word_index(self, k: int, grade: Grade) -> WordIndex:
        """The index of the degree-k words of this grade: a ``GradeBlock``,
        or its ``OrbitBlock`` with ``symmetries``, built once."""
        index = self._indices.get((k, grade))
        if index is None:
            index = GradeBlock(graded_words(self.algebra.grades), k, grade)
            if self.symmetries is not None:
                index = OrbitBlock(index, self.symmetries)
            self._indices[(k, grade)] = index
        return index

    def dim(self, k: int) -> int:
        return sum(self.word_index(k, g).dim for g in self._grades(k))

    def blocks(self, k: int) -> list[BoundaryBlock]:
        """Grade blocks of d_k, one per kept grade of the degree-k words,
        sorted; none below degree 2 (d_1 is the zero map)."""
        if k < 2:
            return []
        return [
            BoundaryBlock(g, self.word_index(k, g), self.word_index(k - 1, g), self.word_boundary)
            for g in self._grades(k)
        ]


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg boundary with coefficients.


def _wedge_word_boundary(bracket, word: Word) -> dict[Word, Coeff]:
    """sum_{i<j} (-1)^(i+j) [x_i,x_j] ∧ ... ^x_i ... ^x_j ... for one wedge word."""
    out: dict[Word, Coeff] = {}
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            sign = 1 if (i + j) % 2 == 0 else -1
            rest = tuple(t for t2, t in enumerate(word) if t2 not in (i, j))
            for c, s in bracket(word[i], word[j]).items():
                neww, sgn = sort_wedge((c,) + rest)
                if sgn:
                    accumulate(out, neww, sign * s * sgn)
    return out


class CEBoundary(_Boundary):
    """CE boundary on M ⊗ Λ^k g inside one ambient algebra.

    ``lead`` spans the coefficient module M, ``wedge`` the acting subalgebra
    g; both are ambient basis index sets.  Module validity ([g,g] within g,
    [M,g] within M) is checked at construction and violations name the pair.
    """

    kind = "mixed"

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
        bracket = self.algebra.bracket
        out = {(m,) + w: v for w, v in _wedge_word_boundary(bracket, tail).items()}
        for i in range(len(tail)):
            sign = -1 if (i + 1) % 2 else 1  # (-1)^(i+1) with 1-based i
            rest = tail[:i] + tail[i + 1 :]
            for c, s in bracket(m, tail[i]).items():
                accumulate(out, (c,) + rest, sign * s)
        return out


class WedgeBoundary(_Boundary):
    """Trivial-coefficient CE boundary on Λ^k g, g spanned by ``factors``."""

    kind = "wedge"

    def __init__(self, algebra: LieAlgebra, factors: Sequence[int]):
        self.algebra = algebra
        self.factors = tuple(factors)

    def space(self, k: int) -> Space:
        return Space(self.algebra, "wedge", k, self.factors)

    def word_boundary(self, word: Word) -> dict[Word, Coeff]:
        return _wedge_word_boundary(self.algebra.bracket, word)


# ---------------------------------------------------------------------------
# Cycle / boundary queries (Loday complex).


def _boundary_for(chain: Chain) -> _Boundary:
    space = chain.space
    if space.kind == "tensor":
        return LodayBoundary(space.algebra)
    if space.kind == "mixed":
        return CEBoundary(space.algebra, space.lead, space.factors)
    return WedgeBoundary(space.algebra, space.factors)


def is_cycle(chain: Chain) -> bool:
    """d(chain) == 0 exactly, in the complex the chain's space belongs to."""
    return _boundary_for(chain).apply(chain).is_zero()


def is_boundary(chain: Chain, *, cap_exact: int = DEFAULT_CAP_EXACT) -> Optional[Chain]:
    """Exact witness x with d(x) = chain, or None (certified infeasible).

    Restricted to tensor chains (the Loday complex).  Each grade block of
    degree k+1 is solved on its orbit sums (``OrbitBlock``) under the group
    H of signed permutations in SO(p)×SO(q) that fix the chain and its
    grades (``rotations.chain_symmetries``: ``rotations.symmetry_group`` on
    the standard basis, which also builds ``split``'s orbit group; H = {id}
    for any algebra but ``build_affine(sig)``/``build_so(sig)``).  H commutes with d, so
    c = d(x) gives c = d(P x) for the average P over H; the witness
    Σ_j x_j·P(rep_j) is re-checked against d in the standard basis.  A block
    with more than ``cap_exact`` columns (orbit sums) raises
    ``CapExceededError``; a negative cap is a ``ValueError``.
    """
    if cap_exact < 0:
        raise ValueError(f"cap_exact must be >= 0, got {cap_exact}")
    if chain.space.kind != "tensor":
        raise SpaceMismatchError("is_boundary expects a tensor chain")
    alg = chain.space.algebra
    k = chain.space.degree
    if chain.is_zero():
        return tensor_space(alg, k + 1).zero()
    words = graded_words(alg.grades)
    by_grade: dict[Grade, dict[Word, Fraction]] = {}
    for w, c in chain.coeffs.items():
        by_grade.setdefault(words.grade_of(w), {})[w] = c
    from .rotations import chain_symmetries

    symmetries = chain_symmetries(alg, by_grade)
    group = symmetries or [(range(alg.dim), (1,) * alg.dim)]
    # only the blocks of the chain's grades are built
    op = LodayBoundary(alg, keep=lambda _: by_grade, symmetries=symmetries)
    blocks = {b.grade: b for b in op.blocks(k + 1)}

    witness: dict[Word, Fraction] = {}
    for g, coeffs in sorted(by_grade.items()):
        block = blocks.get(g)
        if block is None:
            return None  # no columns can hit this component
        if block.cols > cap_exact:
            raise CapExceededError(
                f"exact solve block (grade {g}) has {block.cols} columns, cap {cap_exact}"
            )
        x = solve(block.rows, block.columns(), dict(block.rowspace.ranked(coeffs)))
        if x is None:
            return None
        for j, val in x.items():
            word = block.colspace.unrank_word(j)
            share = val / len(group)  # x_j·P(rep_j)
            for perm, signs in group:
                image = tuple(map(perm.__getitem__, word))
                accumulate(witness, image, math.prod(map(signs.__getitem__, word)) * share)
    out = Chain(tensor_space(alg, k + 1), witness)
    if op.apply(out) != Chain(tensor_space(alg, k), dict(chain.coeffs)):
        raise AssertionError("boundary witness failed exact re-check")
    return out


def embed_mixed_in_tensor(chain: Chain) -> Chain:
    """Embed lead ⊗ (wedge tail) into the full tensor power: the tail is
    antisymmetrized with prefactor 1/k! (so X ⊗ a∧b becomes X ⊗ (a⊗b - b⊗a)/2)."""
    if chain.space.kind != "mixed":
        raise SpaceMismatchError("embed_mixed_in_tensor expects a mixed chain")
    k = chain.space.degree
    pref = Fraction(1, math.factorial(k))
    perms = [(perm, pref * _perm_sign(perm)) for perm in itertools.permutations(range(k))]

    def embed(word: Word) -> dict[Word, Fraction]:
        lead, tail = word[:1], word[1:]
        return {lead + tuple(tail[t] for t in perm): v for perm, v in perms}

    return chain.map(embed, tensor_space(chain.space.algebra, k + 1))


def check_dd_zero(op: _Boundary, degrees: Iterable[int], rng) -> None:
    """d∘d = 0 on random chains of the blocks that ``op`` ranks; raises
    ``AssertionError`` naming the degree and grade of the first nonzero
    composite.

    Per degree k, ``DD_CHECKS`` random chains of the columns of
    ``op.blocks(k)`` (4 columns each, uniform over the degree's columns,
    coefficients in [-5, 5], drawn as ``random_chain`` draws them) go
    through their ``BoundaryBlock.column`` and then through the columns of
    the degree-(k-1) block of the same grade, each generated once per
    degree.  A degree whose d_{k-1} has no blocks (d_1 of Loday) is skipped.
    On orbit blocks this checks the matrix of d on the orbit sums, signs
    included, which ``apply`` on the whole complex never reads.  It holds
    no column past its degree, for the complexes and degrees whose columns
    are not kept; ``homology_dims`` composes every column it ranks instead.
    """
    for k in degrees:
        lower = {b.grade: b for b in op.blocks(k - 1)}
        blocks = [b for b in op.blocks(k) if b.cols]
        if not lower or not blocks:
            continue
        ends = list(itertools.accumulate(b.cols for b in blocks))
        lower_columns: dict[tuple[Optional[Grade], int], Column] = {}
        for _ in range(DD_CHECKS):
            image: dict[tuple[Optional[Grade], int], Coeff] = {}  # (grade, row) -> coefficient
            for _ in range(CHAIN_TERMS):
                j, c = rng.randrange(ends[-1]), rng.randint(-CHAIN_COEFFS, CHAIN_COEFFS)
                if not c:
                    continue
                b = bisect_right(ends, j)
                block = blocks[b]
                for i, v in block.column(j - ends[b] + block.cols):
                    accumulate(image, (block.grade, i), c * v)
            out: dict[tuple[Optional[Grade], int], Coeff] = {}
            for (g, i), v in image.items():
                col = lower_columns.get((g, i))
                if col is None:
                    col = lower_columns[g, i] = lower[g].column(i)
                for r, w in col:
                    accumulate(out, (g, r), v * w)
            if out:
                raise AssertionError(f"d∘d != 0 at degree {k}, grade {min(out)[0]}")
