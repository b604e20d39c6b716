"""The signed coordinate permutations in SO(p)×SO(q) as letter actions.

A map e_k -> s_k·e_{perm[k]} of R^n with det +1 on the p-block and on the
q-block (``liealg.signed_rotations``) that maps each vector of a basis b
of R^n to ± one of them acts on ``build_affine(sig)`` and ``build_so(sig)``,
written on the letters of b, by a signed permutation of the letters
(``liealg.letter_action``).  ``symmetry_group`` is the one builder of the
finite groups of such actions: ``split`` calls it with the split vectors
for the orbit group of its kept blocks, ``chain_symmetries`` with the
standard basis for the stabiliser of a chain.  It is loaded with
``split`` or on the first ``complexes.is_boundary`` call, so importing the
package does not load it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import prod
from operator import mul, or_
from typing import Iterator, Mapping, Optional, Sequence

from .liealg import (
    Coeff, Grade, LieAlgebra, _perm_sign, check_automorphism, is_canonical, letter_action,
    signed_rotations,
)
from .repspace import Symmetry

Word = tuple[int, ...]


class BasisTable:
    """A basis b of R^n: ``vecs`` holds the b_k in standard coordinates
    (0-based), ``find`` each ±b_k as (k, ±1), ``weights`` and ``bits`` their
    torus weights and parity bits; b_i has weight e_i for i below the
    number r of weights, and the letters of the algebra on b are those of
    ``liealg.letter_action``."""

    __slots__ = ("vecs", "find", "weights", "bits")

    def __init__(self, vecs: list[dict[int, int]], weights: list[tuple[int, ...]], bits: list[int]):
        self.vecs, self.weights, self.bits = vecs, weights, bits
        self.find: dict[frozenset, tuple[int, int]] = {}
        for k, vec in enumerate(vecs):
            self.find[frozenset(vec.items())] = (k, 1)
            self.find[frozenset((j, -c) for j, c in vec.items())] = (k, -1)


@lru_cache(maxsize=None)
def _standard_table(n: int) -> BasisTable:
    return BasisTable([{k: 1} for k in range(n)], [()] * n, [1 << k for k in range(n)])


def _candidates(
    alg: LieAlgebra, table: BasisTable
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], list[tuple[int, int]], Symmetry]]:
    """(perm, signs, moved, letter action) for each e_k -> signs[k]·e_{perm[k]}
    of ``signed_rotations(alg.sig)`` whose perm maps the support of every b_k
    to the support of some b_k', with b_k -> s·b_k' for ``moved[k] = (k', s)``.

    Raises ``ValueError`` unless the map keeps the p-block and the q-block
    with det +1 on each and maps each b_k to ± some b_k'."""
    p, n = alg.sig.p, alg.sig.n
    supports = {frozenset(v) for v in table.vecs}
    for perm, signings in signed_rotations(alg.sig):
        images = [[(perm[j], j, c) for j, c in v.items()] for v in table.vecs]
        if any(frozenset(i for i, _, _ in image) not in supports for image in images):
            continue
        blocks = [(b, sorted(map(perm.__getitem__, b)) == list(b)) for b in (range(p), range(p, n))]
        dets = [_perm_sign([perm[k] - b.start for k in b]) if keeps else 0 for b, keeps in blocks]
        for signs in signings:
            for (block, keeps), det in zip(blocks, dets):
                if not keeps:
                    raise _map_error(alg, perm, signs, f"does not keep the block {list(block)}")
                if det * prod(signs[block.start:block.stop]) != 1:
                    raise _map_error(alg, perm, signs, f"has det -1 on the block {list(block)}")
            moved = [
                table.find.get(frozenset([(i, signs[j] * c) for i, j, c in image])) for image in images
            ]
            if None in moved:
                raise _map_error(alg, perm, signs, "maps a basis vector to no basis vector up to sign")
            yield perm, signs, moved, letter_action(alg, moved)


def _map_error(alg: LieAlgebra, perm: Sequence[int], signs: Sequence[int], message: str) -> ValueError:
    return ValueError(
        f"the map e_k -> s_k e_π(k) with π = {list(perm)}, s = {list(signs)} on {alg.name} {message}"
    )


def symmetry_group(
    alg: LieAlgebra, table: BasisTable, target: Mapping[Grade, Mapping[Word, Coeff]]
) -> list[Symmetry]:
    """The letter actions of the ``_candidates`` on the basis ``table`` that
    fix every grade of ``target`` and its chain there, one per letter
    permutation, sorted (the identity first).

    The vector map acts on grades: weights by the signed permutation of the
    torus coordinates, parities by the permutation of the bits.  The first
    action with a letter permutation must map every letter to one of the
    acted-on grade and pass ``liealg.check_automorphism``.  A later one with
    a kept letter permutation must have the same map of vector indices and
    differ from the kept one by the letter signs of a diagonal flip (a mask
    of parity bits), a scalar on each grade block, or act alike (so(p,q)
    at n = 2 has one letter for two index maps); otherwise ``ValueError``
    is raised.
    """
    r = len(table.weights[0])
    used = reduce(or_, table.bits)
    parities = [g[-1] for g in alg.grades]
    flips = {
        tuple(1 - 2 * ((m & s).bit_count() & 1) for s in parities)
        for m in range(used + 1) if not m & ~used
    }
    checked: set[tuple[int, ...]] = set()
    group: dict[tuple[int, ...], tuple[tuple[int, ...], list[int]]] = {}
    for _, _, moved, (perm, signs) in _candidates(alg, table):
        index = [k for k, _ in moved]
        if perm in group:
            kept, kept_index = group[perm]
            if signs != kept and (index != kept_index or tuple(map(mul, kept, signs)) not in flips):
                raise ValueError(
                    f"two symmetries of {alg.name} with one letter permutation "
                    "differ by more than a sign flip"
                )
            continue
        bit_of = {table.bits[k]: table.bits[k2] for k, k2 in enumerate(index)}
        axes = [table.weights[index[i]] for i in range(r)]  # the weights of the images of b_0..b_{r-1}

        def act(g: Grade) -> Grade:
            weight = (sum(g[1 + i] * axes[i][j] for i in range(r)) for j in range(r))
            return (g[0], *weight, sum(b2 for b, b2 in bit_of.items() if g[-1] & b))

        if perm not in checked:
            for x, g in enumerate(alg.grades):
                if alg.grades[perm[x]] != act(g):
                    raise ValueError(
                        f"the symmetry {(perm, signs)} of {alg.name} moves the grade of {alg.labels[x]}"
                    )
            check_automorphism(alg, (perm, signs))
            checked.add(perm)
        if all(act(g) == g and _fixes(perm, signs, chain) for g, chain in target.items()):
            group[perm] = (signs, index)
    return sorted((perm, signs) for perm, (signs, _) in group.items())


def _fixes(perm: Sequence[int], signs: Sequence[int], chain: Mapping[Word, Coeff]) -> bool:
    for w, c in chain.items():
        image = chain.get(tuple(map(perm.__getitem__, w)))
        if image is None or (image if prod(map(signs.__getitem__, w)) == 1 else -image) != c:
            return False
    return True


def chain_symmetries(
    alg: LieAlgebra, by_grade: Mapping[Grade, Mapping[Word, Coeff]]
) -> Optional[list[Symmetry]]:
    """The ``symmetry_group`` on the standard basis that fixes the chain
    ``by_grade`` (its components by grade) and each of its grades; None
    when only the identity does or ``alg`` is not canonical
    (``liealg.is_canonical``)."""
    if not is_canonical(alg):
        return None
    group = symmetry_group(alg, _standard_table(alg.sig.n), by_grade)
    return group if len(group) > 1 else None
