"""Bases of tensor, wedge and mixed powers, and the algebra actions on them.

Words are tuples of basis indices into an ambient algebra.  Wedge words are
kept strictly increasing (a repeated factor is zero and never stored); the
Koszul sign of the sorting permutation is absorbed into the coefficient.
Mixed words carry one leading factor followed by a wedge tail.

Ranking uses a mixed-radix code for tensor words, the combinatorial number
system (colex) for wedge words and the product of the two for mixed words,
so rank/unrank are O(degree) without lookup tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from .liealg import Coeff, LieAlgebra

__all__ = [
    "Space",
    "Chain",
    "SpaceMismatchError",
    "tensor_space",
    "wedge_space",
    "mixed_space",
    "enumerate_basis",
    "sort_wedge",
    "act",
    "act_tensor",
    "act_wedge",
    "act_mixed",
    "assemble_action",
    "tensor_to_wedge",
    "random_chain",
]

Word = tuple[int, ...]


class SpaceMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Space:
    """Descriptor of a tensor/wedge/mixed power inside an ambient algebra.

    ``factors`` lists the ambient basis indices allowed as tensor/wedge
    factors; ``lead`` (mixed spaces only) the indices allowed as the leading
    factor.  ``degree`` counts the tensor/wedge factors, excluding any lead.
    """

    algebra: LieAlgebra
    kind: str  # "tensor" | "wedge" | "mixed"
    degree: int
    factors: tuple[int, ...]
    lead: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("tensor", "wedge", "mixed"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if (self.kind == "mixed") != (self.lead is not None):
            raise ValueError("mixed spaces (and only they) need a lead range")

    # -- dimensions and positions -------------------------------------------

    @property
    def dim(self) -> int:
        d = len(self.factors)
        if self.kind == "tensor":
            return d**self.degree
        if self.kind == "wedge":
            return math.comb(d, self.degree)
        return len(self.lead) * math.comb(d, self.degree)

    @property
    def _pos(self) -> dict[int, int]:
        pos = self.__dict__.get("_pos_cache")
        if pos is None:
            pos = {idx: t for t, idx in enumerate(self.factors)}
            object.__setattr__(self, "_pos_cache", pos)
        return pos

    @property
    def _lead_pos(self) -> dict[int, int]:
        pos = self.__dict__.get("_lead_pos_cache")
        if pos is None:
            pos = {idx: t for t, idx in enumerate(self.lead or ())}
            object.__setattr__(self, "_lead_pos_cache", pos)
        return pos

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

    def words(self) -> Iterator[Word]:
        for r in range(self.dim):
            yield self.unrank_word(r)

    def zero(self) -> "Chain":
        return Chain(self, {})

    def basis_chain(self, word: Word, coeff: Coeff = 1) -> "Chain":
        return Chain(self, {word: Fraction(coeff)})

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
        lo = k - 1
        hi = lo
        while math.comb(hi + 1, k) <= r:
            hi += 1
        out[k - 1] = hi
        r -= math.comb(hi, k)
        k -= 1
    return out


def _perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation of range(len(perm)), from its cycle lengths."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


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


def enumerate_basis(space: Space) -> list[Word]:
    """All words of the space in rank order (rank/unrank are inverse bijections)."""
    return list(space.words())


# ---------------------------------------------------------------------------
# Chains.


@dataclass
class Chain:
    """Sparse rational linear combination of words of one space."""

    space: Space
    coeffs: dict[Word, Fraction]

    def __post_init__(self) -> None:
        self.coeffs = {w: Fraction(c) for w, c in self.coeffs.items() if c}

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
        s = Fraction(scalar)
        return Chain(self.space, {w: s * c for w, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chain)
            and self.space == other.space
            and self.coeffs == other.coeffs
        )

    def terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda t: self.space.rank_word(t[0]))

    def scaled_integral(self) -> "Chain":
        """The chain multiplied by the lcm of all denominators (mod-p friendly)."""
        lcm = 1
        for c in self.coeffs.values():
            lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        return Chain(self.space, {w: c * lcm for w, c in self.coeffs.items()})

    def word_str(self, word: Word) -> str:
        labels = self.space.algebra.labels
        if self.space.kind == "tensor":
            return "*".join(str(labels[i]) for i in word)
        if self.space.kind == "wedge":
            return "^".join(str(labels[i]) for i in word) if word else "1"
        tail = "^".join(str(labels[i]) for i in word[1:]) if word[1:] else "1"
        return f"{labels[word[0]]}*{tail}"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for w, c in self.terms():
            parts.append(f"({c})·{self.word_str(w)}")
        return " + ".join(parts)


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


def act(x: int, chain: Chain) -> Chain:
    """Right action of basis element x on a chain, i.e. the derivation m -> [m, x]."""
    space = chain.space
    out: dict[Word, Fraction] = {}

    def add(word: Word, coeff: Fraction) -> None:
        if coeff:
            out[word] = out.get(word, Fraction(0)) + coeff

    if space.kind == "tensor":
        for word, coeff in chain.coeffs.items():
            for t in range(len(word)):
                for c, s in _bracket_checked(space, space._pos, word[t], x).items():
                    add(word[:t] + (c,) + word[t + 1 :], coeff * s)
    elif space.kind == "wedge":
        for word, coeff in chain.coeffs.items():
            for t in range(len(word)):
                for c, s in _bracket_checked(space, space._pos, word[t], x).items():
                    neww, sgn = sort_wedge(word[:t] + (c,) + word[t + 1 :])
                    if sgn:
                        add(neww, coeff * s * sgn)
    else:
        for word, coeff in chain.coeffs.items():
            lead, tail = word[0], word[1:]
            for c, s in _bracket_checked(space, space._lead_pos, lead, x).items():
                add((c,) + tail, coeff * s)
            for t in range(len(tail)):
                for c, s in _bracket_checked(space, space._pos, tail[t], x).items():
                    neww, sgn = sort_wedge(tail[:t] + (c,) + tail[t + 1 :])
                    if sgn:
                        add((lead,) + neww, coeff * s * sgn)
    return Chain(space, {w: c for w, c in out.items() if c})


def act_tensor(x: int, chain: Chain) -> Chain:
    if chain.space.kind != "tensor":
        raise SpaceMismatchError("act_tensor expects a tensor chain")
    return act(x, chain)


def act_wedge(x: int, chain: Chain) -> Chain:
    if chain.space.kind != "wedge":
        raise SpaceMismatchError("act_wedge expects a wedge chain")
    return act(x, chain)


def act_mixed(x: int, chain: Chain) -> Chain:
    if chain.space.kind != "mixed":
        raise SpaceMismatchError("act_mixed expects a mixed chain")
    return act(x, chain)


def assemble_action(space: Space, x: int):
    """The action of x as an assembled sparse matrix (dict (row, col) -> coeff).

    Agrees column-for-column with the matrix-free path: column j is
    act(x, word_j) expressed in rank coordinates.
    """
    entries: dict[tuple[int, int], Coeff] = {}
    for j in range(space.dim):
        image = act(x, space.basis_chain(space.unrank_word(j)))
        for w, c in image.coeffs.items():
            entries[(space.rank_word(w), j)] = c
    return entries


def tensor_to_wedge(chain: Chain, target: Optional[Space] = None) -> Chain:
    """Canonical projection of a tensor chain onto the wedge power."""
    if chain.space.kind != "tensor":
        raise SpaceMismatchError("tensor_to_wedge expects a tensor chain")
    if target is None:
        target = Space(chain.space.algebra, "wedge", chain.space.degree, chain.space.factors)
    out: dict[Word, Fraction] = {}
    for word, coeff in chain.coeffs.items():
        neww, sgn = sort_wedge(word)
        if sgn:
            out[neww] = out.get(neww, Fraction(0)) + coeff * sgn
    return Chain(target, {w: c for w, c in out.items() if c})


def random_chain(space: Space, rng, terms: int = 4, coeff_range: int = 5) -> Chain:
    """Small random chain for property tests (deterministic given the rng)."""
    coeffs: dict[Word, Fraction] = {}
    if space.dim == 0:
        return space.zero()
    for _ in range(terms):
        w = space.unrank_word(rng.randrange(space.dim))
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            coeffs[w] = coeffs.get(w, Fraction(0)) + c
    return Chain(space, {w: c for w, c in coeffs.items() if c})
