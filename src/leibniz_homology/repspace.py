"""Bases of tensor, wedge and mixed powers, and the algebra actions on them.

Words are tuples of basis indices into an ambient algebra.  Wedge words are
kept strictly increasing (a repeated factor is zero and never stored); the
Koszul sign of the sorting permutation is absorbed into the coefficient.
Mixed words carry one leading factor followed by a wedge tail.

A ``Space`` ranks tensor words by a mixed-radix code, wedge words by the
combinatorial number system (colex) and mixed words by the product of the
two, so its rank/unrank are O(degree) without lookup tables.  A
``GradeBlock`` indexes the tensor words of one length and one grade of a
graded algebra, by rank/unrank over the suffix counts of ``GradedWords``,
keyed by the grade tuples themselves: from the block's root state, one
lookup per letter to rank and one bisect per letter to unrank, each
stepping to the state of the suffix.  An ``OrbitBlock`` indexes the orbit
sums of one grade block under a group of signed letter permutations, by
the lex-least word of each orbit.

Every linear map on chains is one word map, the image of one word as a
sparse dict, extended linearly by ``Chain.map``: ``act`` extends
``act_word``, ``tensor_to_wedge`` extends ``sort_wedge``, and the
boundaries of ``complexes`` extend their ``word_boundary``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import add
from typing import Callable, Iterator, Mapping, Optional, Sequence

from ._value import Frozen, Value
from .liealg import Coeff, Grade, LieAlgebra, accumulate, add_grades

__all__ = [
    "Space",
    "GradedWords",
    "GradeBlock",
    "OrbitBlock",
    "OrbitGroup",
    "graded_words",
    "Chain",
    "SpaceMismatchError",
    "tensor_space",
    "wedge_space",
    "mixed_space",
    "sort_wedge",
    "act",
    "act_word",
    "assemble_action",
    "tensor_to_wedge",
    "random_chain",
]

Word = tuple[int, ...]


class SpaceMismatchError(ValueError):
    pass


class Space(Frozen):
    """Descriptor of a tensor/wedge/mixed power inside an ambient algebra.

    ``factors`` lists the ambient basis indices allowed as tensor/wedge
    factors; ``lead`` (mixed spaces only) the indices allowed as the leading
    factor.  ``degree`` counts the tensor/wedge factors, excluding any lead.
    """

    _fields = ("algebra", "kind", "degree", "factors", "lead")

    def __init__(
        self, algebra: LieAlgebra, kind: str, degree: int, factors: tuple[int, ...],
        lead: Optional[tuple[int, ...]] = None,
    ) -> None:
        if kind not in ("tensor", "wedge", "mixed"):
            raise ValueError(f"unknown space kind {kind!r}")
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if (kind == "mixed") != (lead is not None):
            raise ValueError("mixed spaces (and only they) need a lead range")
        self.__dict__.update(algebra=algebra, kind=kind, degree=degree, factors=factors, lead=lead)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.algebra, self.kind, self.degree, self.factors, self.lead) == (
                other.algebra, other.kind, other.degree, other.factors, other.lead
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.algebra, self.kind, self.degree, self.factors, self.lead))

    # -- dimensions and positions -------------------------------------------

    @property
    def dim(self) -> int:
        d = len(self.factors)
        if self.kind == "tensor":
            return d**self.degree
        if self.kind == "wedge":
            return math.comb(d, self.degree)
        return len(self.lead) * math.comb(d, self.degree)

    @cached_property
    def _pos(self) -> dict[int, int]:
        return {idx: t for t, idx in enumerate(self.factors)}

    @cached_property
    def _lead_pos(self) -> dict[int, int]:
        return {idx: t for t, idx in enumerate(self.lead or ())}

    # -- rank / unrank --------------------------------------------------------

    def rank_word(self, word: Word) -> int:
        d = len(self.factors)
        if self.kind == "tensor":
            r = 0
            for idx in word:
                r = r * d + self._pos[idx]
            return r
        if self.kind == "wedge":
            return _colex_rank([self._pos[idx] for idx in word])
        lead, tail = word[0], word[1:]
        return self._lead_pos[lead] * math.comb(d, self.degree) + _colex_rank(
            [self._pos[idx] for idx in tail]
        )

    def unrank_word(self, r: int) -> Word:
        d = len(self.factors)
        if self.kind == "tensor":
            out = []
            for _ in range(self.degree):
                out.append(self.factors[r % d])
                r //= d
            return tuple(reversed(out))
        if self.kind == "wedge":
            return tuple(self.factors[c] for c in _colex_unrank(r, self.degree))
        block = math.comb(d, self.degree)
        lead = self.lead[r // block]
        tail = tuple(self.factors[c] for c in _colex_unrank(r % block, self.degree))
        return (lead,) + tail

    def ranked(self, terms: Mapping[Word, Coeff]) -> list[tuple[int, Coeff]]:
        """A combination of this space's words as a sorted ``(row, value)``
        column."""
        return sorted((self.rank_word(w), v) for w, v in terms.items())

    def words(self) -> Iterator[Word]:
        for r in range(self.dim):
            yield self.unrank_word(r)

    def zero(self) -> "Chain":
        return Chain(self, {})

    def basis_chain(self, word: Word, coeff: Coeff = 1) -> "Chain":
        return Chain(self, {word: coeff})

    def __repr__(self) -> str:
        base = f"{self.kind}^{self.degree}[{len(self.factors)}]"
        if self.kind == "mixed":
            base = f"lead[{len(self.lead)}]⊗wedge^{self.degree}[{len(self.factors)}]"
        return f"Space({self.algebra.name}: {base})"


def _colex_rank(positions: Sequence[int]) -> int:
    # positions strictly increasing
    return sum(math.comb(c, t + 1) for t, c in enumerate(positions))


def _colex_unrank(r: int, k: int) -> list[int]:
    out = [0] * k
    while k > 0:
        hi = k - 1
        while math.comb(hi + 1, k) <= r:
            hi += 1
        out[k - 1] = hi
        r -= math.comb(hi, k)
        k -= 1
    return out


# ---------------------------------------------------------------------------
# Grade blocks of tensor powers.


class GradedWords:
    """Rank/unrank of the tensor words of a graded algebra, block by grade.

    A word's grade adds its letters' additive fields (translation count and
    torus weights) and XORs their parities (``add_grades``).  ``_counts[m]``
    maps each grade of the length-m words to their number, for m up to half
    the longest length counted, rounded up (up to L after
    ``grades_of_length(L)``).  A (length, grade) pair has the state
    ``(offsets, successors)``: ``offsets[a]`` counts its words whose first
    letter is below a (the last entry is the total), ``successors[a]`` is
    the state of the suffix after a first letter a, or None when no word
    starts with a.  Above the table, count(L, g) is the total of the state
    of (L, g), and 0 with no state when no length-L word can have the
    grade: its (count, parity) pair is not reached at length L, or a field
    is off [L·min, L·max] over the letters.  A state is built in one loop
    over the letters' inverse grades: each suffix grade is formed once, and
    its count read from the table, a kept state or the state built for it.
    Only a pair with words keeps its state; a pair found to have none is
    kept in ``_empty``.  So a reduced complex counts only the grades its
    kept blocks reach, and a state is built when a block first reaches it.
    In lexicographic order within a block, ranking a word is one lookup per
    letter and unranking one bisect per letter.
    """

    def __init__(self, grades: Sequence[Grade]):
        self.grades = tuple(tuple(g) for g in grades)
        widths = {len(g) for g in self.grades}
        if len(widths) > 1:
            raise ValueError("every grade needs the same number of fields")
        self._zero = (0,) * (widths.pop() if widths else 2)
        # adding a letter's inverse takes its grade off the front of a word
        self._inverses = [(tuple(-x for x in g[:-1]), g[-1]) for g in self.grades]
        self._counts: list[dict[Grade, int]] = [{self._zero: 1}]  # length -> grade -> words
        self._bounds = [(min(f), max(f)) for f in list(zip(*self.grades))[:-1]]
        self._pairs = {(g[0], g[-1]) for g in self.grades}
        self._reached = [{(0, 0)}]  # length -> the (count, parity) pairs of its words
        self._states: dict[tuple[int, Grade], tuple] = {(0, self._zero): ((), ())}
        self._empty: set[tuple[int, Grade]] = set()  # pairs above the table with no words

    def _grow(self, length: int) -> None:
        while len(self._counts) <= length:
            cur: dict[Grade, int] = {}
            for g, n in self._counts[-1].items():
                for h in self.grades:
                    h = add_grades(g, h)
                    cur[h] = cur.get(h, 0) + n
            self._counts.append(cur)

    def _occurs(self, length: int, grade: Grade) -> bool:
        """False when no word of this length can have this grade."""
        while len(self._reached) <= length:
            last = self._reached[-1]
            self._reached.append({(c + d, s ^ t) for c, s in last for d, t in self._pairs})
        return (grade[0], grade[-1]) in self._reached[length] and all(
            length * lo <= x <= length * hi for x, (lo, hi) in zip(grade, self._bounds)
        )

    def grades_of_length(self, length: int) -> list[Grade]:
        """The grades of the words of this length, sorted."""
        self._grow(length)
        return sorted(self._counts[length])

    def count(self, length: int, grade: Grade) -> int:
        """The number of words of this length and grade."""
        grade = tuple(grade)
        self._grow((length + 1) // 2)
        if length < len(self._counts):
            return self._counts[length].get(grade, 0)
        if (length, grade) in self._empty or not self._occurs(length, grade):
            return 0
        return self.state(length, grade)[0][-1]

    def state(self, length: int, grade: Grade) -> tuple:
        """The state of a (length, grade) pair, kept if the pair has words."""
        key = (length, grade)
        st = self._states.get(key)
        if st is None:
            m = length - 1
            table = self._counts[m] if m < len(self._counts) else None
            states, empty = self._states, self._empty
            head, parity = grade[:-1], grade[-1]
            off, successors = [0], []
            for inv, bit in self._inverses:
                h = (*map(add, head, inv), parity ^ bit)
                if table is not None:
                    n = table.get(h, 0)
                    nxt = self.state(m, h) if n else None
                else:
                    nxt = states.get((m, h))
                    if nxt is None and (m, h) not in empty and self._occurs(m, h):
                        nxt = self.state(m, h)
                    n = nxt[0][-1] if nxt else 0
                off.append(off[-1] + n)
                successors.append(nxt if n else None)
            st = (off, successors)
            if off[-1]:
                self._states[key] = st
            else:
                self._empty.add(key)
        return st

    def grade_of(self, word: Word) -> Grade:
        return reduce(add_grades, map(self.grades.__getitem__, word), self._zero)


@lru_cache(maxsize=32)
def graded_words(grades: tuple[Grade, ...]) -> GradedWords:
    """The word index of a grading, shared by every caller with that grading."""
    return GradedWords(grades)


class GradeBlock:
    """The tensor words of one length and one grade, in lexicographic order;
    indexed through ``rank_word``/``unrank_word``/``dim``, as in ``Space``."""

    __slots__ = ("length", "grade", "dim", "_root")

    def __init__(self, words: GradedWords, length: int, grade: Grade):
        self.length = length
        self.grade = grade
        self.dim = words.count(length, grade)
        self._root = words.state(length, grade) if self.dim else ((), ())

    def rank_word(self, word: Word) -> int:
        off, nxt = self._root
        r = 0
        for a in word:
            r += off[a]
            off, nxt = nxt[a]
        return r

    def unrank_word(self, r: int) -> Word:
        off, nxt = self._root
        out = []
        for _ in range(self.length):
            a = bisect_right(off, r) - 1
            r -= off[a]
            out.append(a)
            off, nxt = nxt[a]
        return tuple(out)

    def ranked(self, terms: Mapping[Word, Coeff]) -> list[tuple[int, Coeff]]:
        """A combination of this block's words as a sorted ``(row, value)``
        column."""
        return sorted((self.rank_word(w), v) for w, v in terms.items())

    def __repr__(self) -> str:
        return f"GradeBlock(length={self.length}, grade={self.grade}, dim={self.dim})"


Symmetry = tuple[tuple[int, ...], tuple[int, ...]]  # letter permutation, letter signs
PREFIX = 3  # the longest prefix an ``OrbitGroup`` keeps the survivors of


def _prune(survivors: Sequence[Symmetry], letters: Word) -> Sequence[Symmetry]:
    """Of the survivors, those that map the first letter lowest, of those
    the ones that map the next letter lowest, and so on."""
    for a in letters:
        if len(survivors) == 1:
            break
        least = min(perm[a] for perm, _ in survivors)
        survivors = [g for g in survivors if g[0][a] == least]
    return survivors


class OrbitGroup(tuple):
    """A finite group of signed letter permutations, the identity among
    them, with the one memo that every orbit block on it shares.

    The survivors of a word are the elements whose image of it is the
    lex-least one; pruning the group letter by letter finds them.  Those of
    a prefix depend on the prefix alone, so ``survivors(word)`` looks up
    word[:PREFIX] in ``_prefixes``, filled on demand from the entry one
    letter shorter, and prunes only the letters past it: the first level
    of a Schreier–Sims stabiliser chain.  The table holds at most
    Σ_{m <= PREFIX} letters^m entries.  ``OrbitGroup(g)`` is g itself for
    an ``OrbitGroup`` g, so the blocks built on one group share its table."""

    def __new__(cls, elements: Sequence[Symmetry]) -> "OrbitGroup":
        if type(elements) is cls:
            return elements
        group = super().__new__(cls, elements)
        group._prefixes = {(): group}
        return group

    def survivors(self, word: Word) -> Sequence[Symmetry]:
        prefix = word[:PREFIX]
        out = self._prefixes.get(prefix)
        if out is None:
            out = self._prefixes[prefix] = _prune(self.survivors(prefix[:-1]), prefix[-1:])
        return _prune(out, word[PREFIX:]) if len(word) > PREFIX else out


class OrbitBlock:
    """The orbit sums of one ``GradeBlock`` under a finite group acting on
    letters by signed permutations, indexed as in ``GradeBlock``.

    An element (perm, signs) sends a word a_1...a_L to
    signs[a_1]···signs[a_L]·perm[a_1]...perm[a_L]; the group must map the
    block to itself and contain the identity.  An orbit whose stabiliser
    acts on a word by -1 has orbit sum 0 and is dropped; every other orbit
    is indexed by its lex-least word, in lexicographic order.  The
    representatives come from a walk of the block's state tree in lex
    order that keeps, per prefix, the elements fixing it: a prefix is pruned
    as soon as one of them maps its last letter lower (every word that
    extends it then has a smaller image), and a leaf is dropped when one of
    them acts on it by -1.  ``canonical(word)`` takes the survivors of the
    word from the ``OrbitGroup`` that every block of a boundary shares; their
    image of the word is its representative r.  It gives (r, ±1) with
    word = ±1·(an image of r), or None when two survivors act on the word
    with different signs (a dropped orbit), and caches only the words it is
    asked for.
    """

    __slots__ = ("length", "grade", "dim", "_group", "_reps", "_rank", "_canon")

    def __init__(self, block: GradeBlock, symmetries: Sequence[Symmetry]):
        self.length = block.length
        self.grade = block.grade
        self._group = OrbitGroup(symmetries)
        self._reps: list[Word] = []
        if block.dim:
            self._walk(block._root, (), [(perm, signs, 1) for perm, signs in self._group])
        self._rank = {w: r for r, w in enumerate(self._reps)}
        self.dim = len(self._reps)
        self._canon: dict[Word, Optional[tuple[Word, int]]] = {}

    def _walk(self, state: tuple, prefix: Word, fixing: list) -> None:
        """Append the representatives below ``prefix``, whose state is
        ``state``; ``fixing`` holds the elements that fix the prefix letter
        by letter, each with its sign on it."""
        if len(prefix) == self.length:
            if all(s > 0 for _, _, s in fixing):
                self._reps.append(prefix)
            return
        for a, nxt in enumerate(state[1]):
            if nxt is None:
                continue
            keep = []
            for perm, signs, s in fixing:
                b = perm[a]
                if b < a:
                    break
                if b == a:
                    keep.append((perm, signs, s * signs[a]))
            else:
                self._walk(nxt, prefix + (a,), keep)

    def canonical(self, word: Word) -> Optional[tuple[Word, int]]:
        if word in self._canon:
            return self._canon[word]
        survivors = self._group.survivors(word)
        perm, signs = survivors[0]
        sign = math.prod(map(signs.__getitem__, word))
        if any(math.prod(map(s.__getitem__, word)) != sign for _, s in survivors[1:]):
            sign = 0  # the stabiliser of the image has an element acting by -1
        out = self._canon[word] = (tuple(map(perm.__getitem__, word)), sign) if sign else None
        return out

    def ranked(self, terms: Mapping[Word, Coeff]) -> list[tuple[int, Coeff]]:
        """A combination of this block's words as a sorted ``(row, value)``
        column of its representatives, in one pass: each term goes to the
        rank of its representative, with its sign; the terms of dropped
        orbits vanish."""
        out: dict[int, Coeff] = {}
        rank, canonical = self._rank, self.canonical
        for word, v in terms.items():
            hit = canonical(word)
            if hit is not None:
                r = rank[hit[0]]
                nv = out.get(r, 0) + hit[1] * v
                if nv:
                    out[r] = nv
                elif r in out:
                    del out[r]
        return sorted(out.items())

    def rank_word(self, word: Word) -> int:
        return self._rank[word]

    def unrank_word(self, r: int) -> Word:
        return self._reps[r]

    def __repr__(self) -> str:
        return f"OrbitBlock(length={self.length}, grade={self.grade}, dim={self.dim})"


def tensor_space(alg: LieAlgebra, k: int, factors: Optional[Sequence[int]] = None) -> Space:
    return Space(alg, "tensor", k, tuple(factors) if factors is not None else tuple(range(alg.dim)))


def wedge_space(alg: LieAlgebra, k: int, factors: Optional[Sequence[int]] = None) -> Space:
    if factors is None:
        factors = alg.translation_indices or tuple(range(alg.dim))
    return Space(alg, "wedge", k, tuple(factors))


def mixed_space(
    alg: LieAlgebra,
    k: int,
    lead: Sequence[int],
    factors: Optional[Sequence[int]] = None,
) -> Space:
    if factors is None:
        factors = alg.translation_indices or tuple(range(alg.dim))
    return Space(alg, "mixed", k, tuple(factors), tuple(lead))


# ---------------------------------------------------------------------------
# Chains.


class Chain(Value):
    """Sparse rational linear combination of words of one space.  Every
    coefficient must be exact, an ``int`` or a ``Fraction``."""

    _fields = ("space", "coeffs")

    def __init__(self, space: Space, coeffs: dict[Word, Fraction]) -> None:
        for w, c in coeffs.items():
            if not isinstance(c, (int, Fraction)):
                raise ValueError(f"coefficient of word {w} is {c!r}, not an int or a Fraction")
        self.space = space
        self.coeffs = {w: Fraction(c) for w, c in coeffs.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Chain") -> "Chain":
        if self.space != other.space:
            raise SpaceMismatchError("cannot add chains of different spaces")
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, Fraction(0)) + c
        return Chain(self.space, out)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "Chain":
        if not isinstance(scalar, (int, Fraction)):
            raise ValueError(f"scalar {scalar!r} is not an int or a Fraction")
        s = Fraction(scalar)
        return Chain(self.space, {w: s * c for w, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chain)
            and self.space == other.space
            and self.coeffs == other.coeffs
        )

    def map(self, word_map: Callable[[Word], Mapping[Word, Coeff]], target: Space) -> "Chain":
        """The linear extension of ``word_map`` to this chain, a chain of ``target``."""
        out: dict[Word, Fraction] = {}
        for word, coeff in self.coeffs.items():
            for new, v in word_map(word).items():
                out[new] = out.get(new, 0) + coeff * v
        return Chain(target, out)

    def terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda t: self.space.rank_word(t[0]))

    def word_str(self, word: Word) -> str:
        labels = self.space.algebra.labels
        if self.space.kind == "tensor":
            return "*".join(str(labels[i]) for i in word) if word else "1"
        if self.space.kind == "wedge":
            return "^".join(str(labels[i]) for i in word) if word else "1"
        tail = "^".join(str(labels[i]) for i in word[1:]) if word[1:] else "1"
        return f"{labels[word[0]]}*{tail}"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({c})·{self.word_str(w)}" for w, c in self.terms())


def sort_wedge(word: Sequence[int]) -> tuple[Word, int]:
    """Canonicalize a wedge tuple: (sorted word, Koszul sign), sign 0 on repeats."""
    w = list(word)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            w[j - 1], w[j] = w[j], w[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and w[j - 1] == w[j]:
            return tuple(w), 0
    return tuple(w), sign


# ---------------------------------------------------------------------------
# Actions.  Convention: act(x, m) := [m, x], extended as a derivation over
# tensor/wedge factors; the leading factor of a mixed word uses the ambient
# bracket.


def _bracket_checked(space: Space, allowed: Mapping[int, int], m: int, x: int) -> dict[int, Coeff]:
    vec = space.algebra.bracket(m, x)
    for c in vec:
        if c not in allowed:
            raise SpaceMismatchError(
                f"bracket [{space.algebra.labels[m]}, {space.algebra.labels[x]}] leaves the space"
            )
    return vec


def act_word(space: Space, x: int, word: Word) -> dict[Word, Coeff]:
    """The derivation m -> [m, x] on one word of ``space``: the bracket
    replaces one factor at a time, and a wedge tail is re-sorted."""
    out: dict[Word, Coeff] = {}
    head, tail = (), word
    if space.kind == "mixed":
        head, tail = word[:1], word[1:]
        for c, s in _bracket_checked(space, space._lead_pos, word[0], x).items():
            accumulate(out, (c,) + tail, s)
    for t in range(len(tail)):
        for c, s in _bracket_checked(space, space._pos, tail[t], x).items():
            new, sgn = tail[:t] + (c,) + tail[t + 1 :], 1
            if space.kind != "tensor":
                new, sgn = sort_wedge(new)
            if sgn:
                accumulate(out, head + new, s * sgn)
    return out


def act(x: int, chain: Chain) -> Chain:
    """Right action of basis element x on a chain, i.e. the derivation m -> [m, x]."""
    space = chain.space
    return chain.map(lambda word: act_word(space, x, word), space)


def assemble_action(space: Space, x: int) -> list[list[tuple[int, Coeff]]]:
    """The action of x as sorted ``(row, value)`` columns, the matrix format
    of ``linalg``: column j is ``act_word(space, x, word_j)`` in rank
    coordinates, so it agrees column for column with ``act``."""
    return [
        sorted((space.rank_word(w), c) for w, c in act_word(space, x, word).items())
        for word in space.words()
    ]


def tensor_to_wedge(chain: Chain, target: Optional[Space] = None) -> Chain:
    """Canonical projection of a tensor chain onto the wedge power."""
    if chain.space.kind != "tensor":
        raise SpaceMismatchError("tensor_to_wedge expects a tensor chain")
    if target is None:
        target = Space(chain.space.algebra, "wedge", chain.space.degree, chain.space.factors)
    # sort_wedge gives (sorted word, sign); a repeated factor has sign 0 and drops out
    return chain.map(lambda word: dict([sort_wedge(word)]), target)


CHAIN_TERMS = 4  # words drawn per random chain
CHAIN_COEFFS = 5  # coefficients drawn from [-5, 5]


def random_chain(space: Space, rng) -> Chain:
    """Small random chain for property tests (deterministic given the rng)."""
    coeffs: dict[Word, int] = {}
    for _ in range(CHAIN_TERMS if space.dim else 0):
        w = space.unrank_word(rng.randrange(space.dim))
        c = rng.randint(-CHAIN_COEFFS, CHAIN_COEFFS)
        if c:
            coeffs[w] = coeffs.get(w, 0) + c
    return Chain(space, coeffs)  # a sum that cancels is dropped
