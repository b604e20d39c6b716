"""Invariant subspaces M^{so(p,q)} as exact kernels, and the named invariant elements.

Every linear map on chains is a word map extended by ``Chain.map``, as in
``repspace``.  ``invariant_subspace`` stacks the action of every acting basis
element on one basis word (``act_word``) into one column, reads the kernel
from ``linalg.kernel_basis`` and re-verifies each kernel chain by direct
annihilation (``act``).  On an algebra equal to ``build_affine(sig)`` or
``build_so(sig)`` (``liealg.is_canonical``) only the words whose parity is
constant on each block get a column: for an acting ``X(i,j)``, both indices
in one block, exp(π·X(i,j)) is the flip ε_iε_j, which multiplies a word of
parity s by (-1)^(s_i + s_j), and a vector killed by X is fixed by every
exp(tX), so an invariant has no word with s_i != s_j.  Every other algebra
(a ``sig=None`` copy included) solves over all words.  ``lead_projection``
extends the projection of one tensor word onto lead ⊗ Λ^(k-1).
``expected_invariant_dim`` is the paper's table of invariant dimensions.

The named elements (all exact, integer up to the stated 1/n! prefactor):

* alpha       — the volume element d1 ∧ ... ∧ dn of the top wedge power.
* alpha_tilde — its full tensor antisymmetrization, sum over S_n of
                sgn(s) d_{s(1)} ⊗ ... ⊗ d_{s(n)}.
* delta       — the signed trace element sum_{i<=p} d_i⊗d_i - sum_{i>p} d_i⊗d_i.
* beta        — sum_{m=1..n} (-1)^(m-1) d_m ⊗ (wedge of the complement of m).
* rho         — the invariant of so ⊗ Λ^2: sum X(i,j)⊗d_i∧d_j over p-pairs,
                minus the same over q-pairs, plus sum Y(i,j)⊗d_i∧d_j.
* gamma       — the invariant of so ⊗ Λ^(n-2): lead ⊗ (complement wedge of
                {i,j}) with sign (-1)^(i+j+1) on p-block X pairs and
                (-1)^(i+j) on q-block X pairs and on Y pairs (the unique
                pattern annihilated by so(p,q); confirmed against the kernel
                solver at every tested signature).
* gamma_bar / gamma_bar_prime — the degree-(n-1) tensor lifts of gamma with
                the so-factor first resp. last: for each eligible (i,j) the
                tail runs over all bijections s from the n-2 slots onto
                {1..n} minus {i,j}, signed by sgn(s) relative to the
                increasing order of that complement, with prefactor 1/n!.
* gamma_tilde — gamma_bar + sign * gamma_bar_prime; the surviving sign is
                resolved at runtime by ``resolve_gamma_tilde_sign``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .liealg import (
    BoostY, Coeff, LieAlgebra, RotationX, Signature, Translation, _perm_sign, build_affine, is_canonical,
)
from .linalg import CapExceededError, SparseMatrix, kernel_basis
from .repspace import (
    Chain,
    Space,
    act,
    act_word,
    mixed_space,
    sort_wedge,
    tensor_space,
    wedge_space,
)

__all__ = [
    "InvariantBasis",
    "invariant_subspace",
    "make_alpha",
    "make_alpha_tilde",
    "make_delta",
    "make_beta",
    "make_rho",
    "make_gamma",
    "make_gamma_bar",
    "make_gamma_bar_prime",
    "make_gamma_tilde",
    "resolve_gamma_tilde_sign",
    "annihilated_by",
    "proportional",
    "lead_projection",
    "expected_invariant_dim",
]

DEFAULT_ROW_CAP = 2_000_000


@dataclass
class InvariantBasis:
    space: Space
    basis: list[Chain]
    dim: int

    def __post_init__(self) -> None:
        if self.dim != len(self.basis):
            raise ValueError(f"dim {self.dim} does not match {len(self.basis)} basis chains")


def expected_invariant_dim(module: str, n: int, k: int = 0) -> Optional[int]:
    """The paper's dimension of the so(p,q)-invariants at n = p + q of Λ^k I
    (``"wedge"``), I ⊗ Λ^k (``"I*wedge"``), so ⊗ Λ^k (``"so*wedge"``) or the
    adjoint module (``"so"``).  None for so ⊗ Λ^2 at n = 4, where the
    statements for k = 2 and k = n - 2 coincide and the value is only recorded."""
    if module == "so":
        return 0
    if module == "so*wedge" and n == 4 and k == 2:
        return None
    ends = {"wedge": (0, n), "I*wedge": (1, n - 1), "so*wedge": (2, n - 2)}[module]
    return 1 if k in ends else 0


def _resolve_acting(acting, space: Space) -> list[int]:
    alg = space.algebra
    if isinstance(acting, LieAlgebra):
        if acting is alg:
            return list(range(acting.dim))
        return [alg.index(lab) for lab in acting.labels]
    gens = []
    for x in acting:
        try:
            i = operator.index(x)
        except TypeError:
            raise ValueError(f"acting index {x!r} is not an integer") from None
        if not 0 <= i < alg.dim:
            raise ValueError(f"acting index {i} out of range for the {alg.dim}-dimensional {alg.name}")
        gens.append(i)
    return gens


def _kept_words(space: Space, gens: Sequence[int]) -> list[tuple[int, ...]]:
    """The words of ``space`` an invariant of ``gens`` can involve, in rank
    order: on a canonical algebra those whose parity s has s_i = s_j for
    every acting ``RotationX(i,j)``, otherwise every word."""
    alg = space.algebra
    flips = []
    if is_canonical(alg):
        flips = [alg.grades[x][1] for x in gens if isinstance(alg.labels[x], RotationX)]
    if not flips:
        return list(space.words())
    parity = [g[1] for g in alg.grades]
    out = []
    for word in space.words():
        s = 0
        for a in word:
            s ^= parity[a]
        if all(s & f in (0, f) for f in flips):  # f has bits i and j
            out.append(word)
    return out


def invariant_subspace(
    acting: Union[LieAlgebra, Sequence[int]],
    space: Space,
    *,
    row_cap: int = DEFAULT_ROW_CAP,
) -> InvariantBasis:
    """Exact kernel of the stacked action matrices of all acting elements.

    ``acting`` is a subalgebra given either as a LieAlgebra whose labels are
    resolved inside the ambient algebra of the space, or as explicit ambient
    basis indices (a non-integer or out-of-range index is a ValueError).
    Chains in the returned basis are primitive integer vectors, the
    lowest-rank word carrying a positive coefficient, and each is
    re-verified to be annihilated exactly.

    The stacked matrix has one row block of ``space.dim`` rows per acting
    element (``row_cap`` bounds their total), but a column only for the
    words ``_kept_words`` keeps.  On a canonical algebra
    (``liealg.is_canonical``) those are the words whose parity is equal on
    i and j for every acting ``X(i,j)``: exp(π·X(i,j)) acts on every module
    built from h_n as the flip ε_iε_j, i.e. by (-1)^(s_i + s_j) on a word of
    parity s, and fixes every vector X kills, so no invariant has a word
    the rule drops.  The kernel is therefore the same, and since the tracked
    elimination gives each dependent column its unique relation over the
    earlier independent ones, so is the basis, chain for chain.
    """
    gens = _resolve_acting(acting, space)
    rows = len(gens) * space.dim
    if rows > row_cap:
        raise CapExceededError(
            f"stacked action matrix has {rows} rows "
            f"({len(gens)} generators x dim {space.dim}), cap {row_cap}"
        )
    words = _kept_words(space, gens)
    entries: dict[tuple[int, int], Coeff] = {}
    for j, word in enumerate(words):
        for t, x in enumerate(gens):
            for w, c in act_word(space, x, word).items():
                entries[(t * space.dim + space.rank_word(w), j)] = c
    chains: list[Chain] = []
    for vec in kernel_basis(SparseMatrix(rows, len(words), entries)):
        chain = Chain(space, {words[j]: c for j, c in vec.items()})
        first = min(chain.coeffs, key=space.rank_word)
        if chain.coeffs[first] < 0:
            chain = -1 * chain
        chains.append(chain)
    chains.sort(key=lambda c: space.rank_word(min(c.coeffs, key=space.rank_word)))
    for chain in chains:
        for x in gens:
            if not act(x, chain).is_zero():
                raise AssertionError("kernel chain failed exact annihilation re-check")
    return InvariantBasis(space, chains, len(chains))


def annihilated_by(chain: Chain, acting: Union[LieAlgebra, Sequence[int]]) -> bool:
    """True iff every basis element of ``acting`` kills the chain exactly."""
    gens = _resolve_acting(acting, chain.space)
    return all(act(x, chain).is_zero() for x in gens)


def proportional(a: Chain, b: Chain) -> bool:
    """Exact proportionality over Q (both nonzero and parallel, or both zero)."""
    if a.space != b.space:
        return False
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    if set(a.coeffs) != set(b.coeffs):
        return False
    w0 = next(iter(a.coeffs))
    ratio = b.coeffs[w0] / a.coeffs[w0]
    return all(b.coeffs[w] == ratio * a.coeffs[w] for w in a.coeffs)


# ---------------------------------------------------------------------------
# Named elements.


def _trans(h: LieAlgebra, i: int) -> int:
    return h.index(Translation(i))


def make_alpha(sig: Signature) -> Chain:
    """Volume element d1 ∧ ... ∧ dn (coefficient 1)."""
    h = build_affine(sig)
    space = wedge_space(h, sig.n)
    word = tuple(_trans(h, i) for i in range(1, sig.n + 1))
    return space.basis_chain(word)


def make_alpha_tilde(sig: Signature) -> Chain:
    """Alternating sum over S_n of d_{s(1)} ⊗ ... ⊗ d_{s(n)} in the full tensor power."""
    h = build_affine(sig)
    space = tensor_space(h, sig.n)
    coeffs: dict[tuple[int, ...], Fraction] = {}
    base = [_trans(h, i) for i in range(1, sig.n + 1)]
    for perm in itertools.permutations(range(sig.n)):
        word = tuple(base[t] for t in perm)
        coeffs[word] = Fraction(_perm_sign(perm))
    return Chain(space, coeffs)


def make_delta(sig: Signature) -> Chain:
    """Signed trace element of I ⊗ I (mixed space with translation lead)."""
    h = build_affine(sig)
    space = mixed_space(h, 1, lead=h.translation_indices)
    coeffs = {}
    for i in range(1, sig.n + 1):
        t = _trans(h, i)
        coeffs[(t, t)] = Fraction(1 if i <= sig.p else -1)
    return Chain(space, coeffs)


def _complement_wedge(h: LieAlgebra, n: int, omit: Sequence[int]) -> tuple[int, ...]:
    return tuple(_trans(h, i) for i in range(1, n + 1) if i not in omit)


def make_beta(sig: Signature) -> Chain:
    """The invariant of I ⊗ Λ^(n-1): sum (-1)^(m-1) d_m ⊗ (complement wedge).

    Uniform signs across both blocks; the q-block does not flip (the flipped
    variant is not annihilated, as the kernel solver confirms).
    """
    h = build_affine(sig)
    n = sig.n
    space = mixed_space(h, n - 1, lead=h.translation_indices)
    coeffs = {}
    for m in range(1, n + 1):
        word = (_trans(h, m),) + _complement_wedge(h, n, (m,))
        coeffs[word] = Fraction((-1) ** (m - 1))
    return Chain(space, coeffs)


def make_rho(sig: Signature) -> Chain:
    """The invariant of so ⊗ Λ^2; requires n >= 2 with at least one valid pair."""
    h = build_affine(sig)
    p, n = sig.p, sig.n
    space = mixed_space(h, 2, lead=h.so_indices)
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            coeffs[(h.index(RotationX(i, j)), _trans(h, i), _trans(h, j))] = Fraction(1)
    for i in range(p + 1, n + 1):
        for j in range(i + 1, n + 1):
            coeffs[(h.index(RotationX(i, j)), _trans(h, i), _trans(h, j))] = Fraction(-1)
    for i in range(1, p + 1):
        for j in range(p + 1, n + 1):
            coeffs[(h.index(BoostY(i, j)), _trans(h, i), _trans(h, j))] = Fraction(1)
    return Chain(space, coeffs)


def _gamma_blocks(sig: Signature) -> list[tuple[int, int, object, int]]:
    """(i, j, lead label, sign) for every eligible pair, with the verified signs."""
    p, n = sig.p, sig.n
    out = []
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            out.append((i, j, RotationX(i, j), (-1) ** (i + j + 1)))
    for i in range(p + 1, n + 1):
        for j in range(i + 1, n + 1):
            out.append((i, j, RotationX(i, j), (-1) ** (i + j)))
    for i in range(1, p + 1):
        for j in range(p + 1, n + 1):
            out.append((i, j, BoostY(i, j), (-1) ** (i + j)))
    return out


def make_gamma(sig: Signature) -> Chain:
    """The invariant of so ⊗ Λ^(n-2) (block signs as documented in the module docstring)."""
    h = build_affine(sig)
    n = sig.n
    space = mixed_space(h, n - 2, lead=h.so_indices)
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for i, j, lab, sign in _gamma_blocks(sig):
        word = (h.index(lab),) + _complement_wedge(h, n, (i, j))
        coeffs[word] = Fraction(sign)
    return Chain(space, coeffs)


def _gamma_bar_words(sig: Signature, lead_first: bool) -> dict[tuple[int, ...], Fraction]:
    h = build_affine(sig)
    n = sig.n
    pref = Fraction(1, math.factorial(n))
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for i, j, lab, sign in _gamma_blocks(sig):
        lead = h.index(lab)
        complement = _complement_wedge(h, n, (i, j))
        for perm in itertools.permutations(range(n - 2)):
            tail = tuple(complement[t] for t in perm)
            word = (lead,) + tail if lead_first else tail + (lead,)
            coeffs[word] = coeffs.get(word, Fraction(0)) + pref * sign * _perm_sign(perm)
    return coeffs


def make_gamma_bar(sig: Signature) -> Chain:
    """Tensor lift of gamma with the so-factor leading, prefactor 1/n!."""
    h = build_affine(sig)
    return Chain(tensor_space(h, sig.n - 1), _gamma_bar_words(sig, lead_first=True))


def make_gamma_bar_prime(sig: Signature) -> Chain:
    """Tensor lift of gamma with the so-factor trailing, prefactor 1/n!."""
    h = build_affine(sig)
    return Chain(tensor_space(h, sig.n - 1), _gamma_bar_words(sig, lead_first=False))


def make_gamma_tilde(sig: Signature, sign: int) -> Chain:
    """gamma_bar + sign * gamma_bar_prime for sign in {+1, -1}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return make_gamma_bar(sig) + sign * make_gamma_bar_prime(sig)


def resolve_gamma_tilde_sign(sig: Signature) -> tuple[Optional[int], dict[int, bool]]:
    """Test both signs for invariance under the full affine algebra.

    Returns (resolved sign or None, {sign: is_invariant}).  Exactly one sign
    is expected to survive; both surviving or neither is reported as None.
    """
    h = build_affine(sig)
    results: dict[int, bool] = {}
    for sign in (1, -1):
        chain = make_gamma_tilde(sig, sign)
        results[sign] = all(act(x, chain).is_zero() for x in range(h.dim))
    survivors = [s for s, ok in results.items() if ok]
    return (survivors[0] if len(survivors) == 1 else None), results


def lead_projection(chain: Chain, lead: Sequence[int]) -> Chain:
    """Project a tensor chain onto lead ⊗ Λ^(k-1): keep the first factor,
    antisymmetrize the trailing factors into a wedge.  Words whose first
    factor is outside ``lead`` are dropped."""
    if chain.space.kind != "tensor":
        raise ValueError("lead_projection expects a tensor chain")
    space = mixed_space(chain.space.algebra, chain.space.degree - 1, lead=tuple(lead))
    lead_set = set(lead)

    def project(word: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        if word[0] not in lead_set:
            return {}
        tail, sgn = sort_wedge(word[1:])
        return {(word[0],) + tail: sgn}

    return chain.map(project, space)
