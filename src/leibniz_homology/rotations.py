"""The signed coordinate permutations in SO(p)×SO(q) as letter actions.

A map e_k -> s_k·e_{perm[k]} of R^n with det +1 on the p-block and on the
q-block (``liealg.signed_rotations``, which yields only such maps) that
maps each vector of a basis b of R^n to ± one of them acts on
``build_affine(sig)`` and ``build_so(sig)``, written on the letters of b,
by a signed permutation of the letters (``liealg.letter_action``).
``symmetry_group`` is the one builder of the finite groups of such
actions: ``split`` calls it with the split vectors for the orbit group of
its kept blocks, ``chain_symmetries`` with the standard basis for the
stabiliser of a chain.  It builds one letter action per group element
(so(2,0), one letter for two index maps, takes two) and checks what can
fail: that each action moves grades as its map does and is an
automorphism.  It is loaded with ``split`` or on the first
``complexes.is_boundary`` call, so importing the package does not load it.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Mapping, Optional, Sequence

from .liealg import (
    Coeff, Grade, LieAlgebra, check_automorphism, is_canonical, letter_action, signed_rotations,
    structure_triples,
)
from .repspace import Symmetry

Word = tuple[int, ...]


class BasisTable:
    """A basis b of R^n: ``vecs`` holds the b_k in standard coordinates
    (0-based), ``find`` each ±b_k as (k, ±1), ``weights`` and ``bits`` their
    torus weights and parity bits; b_i has weight e_i for i below the
    number r of weights, and the letters of the algebra on b are those of
    ``liealg.letter_images``.  Every sign pattern on the support of a b_k
    is ± some b_k' (the split vectors pair e_i + e_{p+i} with e_i - e_{p+i}),
    so whether a signed permutation maps the basis to itself up to sign
    depends on its permutation alone."""

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


def symmetry_group(
    alg: LieAlgebra, table: BasisTable, target: Mapping[Grade, Mapping[Word, Coeff]]
) -> list[Symmetry]:
    """The letter actions of the maps of ``signed_rotations(alg.sig)`` that
    send each b_k of the basis ``table`` to ± some b_k' and fix every grade
    of ``target`` and its chain there, one per letter permutation, sorted
    (the identity first).

    Two sign vectors with one map of vector indices differ by a diagonal
    flip, a scalar on each grade block: once an index map has a kept
    action, its other sign vectors add nothing and are skipped before
    ``letter_action``.  A flip can be -1 on a target grade, so an index
    map whose action fails ``target`` tries its next sign vector.  The
    vector map acts on grades: weights by the signed permutation of the
    torus coordinates, parities by the permutation of the bits.  The first
    action of each letter permutation must map every letter to one of the
    acted-on grade and pass ``liealg.check_automorphism``, against the
    structure triples built once per call; otherwise ``ValueError`` is
    raised.
    """
    r = len(table.weights[0])
    triples = structure_triples(alg)
    checked: set[tuple[int, ...]] = set()
    kept: set[tuple[int, ...]] = set()  # index maps whose action is in the group
    group: dict[tuple[int, ...], tuple[int, ...]] = {}
    for coords, signings in signed_rotations(alg.sig):
        images = [[(coords[j], j, c) for j, c in v.items()] for v in table.vecs]
        for signing in signings:
            moved = [table.find.get(frozenset([(i, signing[j] * c) for i, j, c in image])) for image in images]
            if None in moved:
                break  # the supports do not match, whatever the signs
            index = tuple(k for k, _ in moved)
            if index in kept:
                continue
            perm, signs = letter_action(alg, moved)
            if perm in group:  # so(2,0): one letter for two index maps
                kept.add(index)
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
                check_automorphism(alg, (perm, signs), triples)
                checked.add(perm)
            if all(act(g) == g and _fixes(perm, signs, chain) for g, chain in target.items()):
                group[perm] = signs
                kept.add(index)
    return sorted(group.items())


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
