"""The signed coordinate permutations in SO(p)×SO(q) as letter actions.

A map e_k -> s_k·e_{perm[k]} of R^n with det +1 on the p-block and on the
q-block (``signed_rotations`` yields only such maps) that maps each vector
of a basis b of R^n to ± one of them acts on ``build_affine(sig)`` and
``build_so(sig)``, written on the letters of b (``letter_images``), by a
signed permutation of the letters (``letter_action``).
``symmetry_group`` is the one builder of the finite groups of such
actions: ``split`` calls it with the split vectors for the orbit group of
its kept blocks, ``chain_symmetries`` with the standard basis for the
stabiliser of a chain.  It goes by index map, the map k -> k' of the b_k,
not by sign vector: one letter action per index map, whose sign vectors
are flips of it (so(2,0), one letter for two index maps, takes two), and
checks what can fail: that each action moves grades as its map does and
is an automorphism.  It is loaded with ``split`` or on the first
``complexes.is_boundary`` call, so importing the package does not load it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import prod
from typing import Iterator, Mapping, Optional, Sequence

from .liealg import (
    Coeff, Grade, LieAlgebra, Signature, _perm_sign, accumulate, check_automorphism, is_canonical,
    so_labels, structure_triples,
)
from .repspace import Symmetry

Word = tuple[int, ...]


def signed_rotations(sig: Signature) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """The maps e_k -> s_k·e_{perm[k]} (0-based) in SO(p)×SO(q), grouped by
    perm: each perm keeping both blocks, the identity first, with the sign
    vectors s giving det +1 on each block, in ``product((1, -1))`` order."""
    p, n = sig.p, sig.n
    by_dets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for signs in product((1, -1), repeat=n):
        by_dets.setdefault((prod(signs[:p]), prod(signs[p:])), []).append(signs)
    for head in permutations(range(p)):
        for tail in permutations(range(p, n)):
            yield head + tail, by_dets[_perm_sign(head), _perm_sign([t - p for t in tail])]


def _pair_sign(k: int, l: int, p: int) -> int:
    """The sign s with e_k ∧ e_l = s·(the X or Y label of the pair), 0-based
    k < l: the field of x -> e_k B(e_l, x) - e_l B(e_k, x) is X(k+1,l+1) in
    the p-block, and -X(k+1,l+1) in the q-block or -Y(k+1,l+1) across."""
    return 1 if l < p else -1


@lru_cache(maxsize=None)
def letter_pairs(sig: Signature) -> tuple[list[tuple[int, int]], dict[tuple[int, int], tuple[int, int]]]:
    """The pairs (i-1, j-1) of ``so_labels(sig)`` in order, and
    ``wedge[(a, b)] = (t, s)`` for a != b when e_a ∧ e_b = s·so_labels(sig)[t]."""
    pairs = [(lab.i - 1, lab.j - 1) for lab in so_labels(sig)]
    wedge = {}
    for t, (a, b) in enumerate(pairs):
        s = _pair_sign(a, b, sig.p)
        wedge[(a, b)], wedge[(b, a)] = (t, s), (t, -s)
    return pairs, wedge


def letter_images(
    sig: Signature, nt: int, vecs: Sequence[Mapping[int, int]]
) -> list[dict[int, int]]:
    """The letters on a basis b of R^n, b_k = Σ vecs[k][j]·e_j (0-based), as
    sparse combinations of the standard letters of ``build_affine(sig)`` or
    ``build_so(sig)``: the d(b_k) for k < nt (nt = n with translations, else
    0), then ``_pair_sign(a, b, p)·b_a ∧ b_b`` for the ``letter_pairs``
    (a, b).  For b = e these are the standard letters; ``split`` gets the
    split form's letters from its split vectors, and ``letter_action`` the
    image of a signed permutation from one-term vectors."""
    pairs, wedge = letter_pairs(sig)
    images = [dict(vecs[k]) for k in range(nt)]
    for a, b in pairs:
        sign = wedge[(a, b)][1]
        img: dict[int, int] = {}
        for k, u in vecs[a].items():
            for l, v in vecs[b].items():
                if k != l:
                    t, s = wedge[(k, l)]
                    accumulate(img, nt + t, sign * s * u * v)
        images.append(img)
    return images


def letter_action(alg: LieAlgebra, moved: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """The signed letter permutation of ``alg`` induced by b_k -> s·b_k' for
    ``moved[k] = (k', s)``, on a basis b of R^n whose letters are those of
    ``letter_images``: the standard letters of ``build_affine(sig)`` and
    ``build_so(sig)`` for b = e, the split form's letters for its split
    vectors.  It is read off the one-term images of the letters under
    b_k -> s·e_k'."""
    nt = alg.dim - len(letter_pairs(alg.sig)[0])
    images = letter_images(alg.sig, nt, [{k: s} for k, s in moved])
    return tuple(zip(*(img.popitem() for img in images)))


class BasisTable:
    """A basis b of R^n: ``vecs`` holds the b_k in standard coordinates
    (0-based), ``find`` each ±b_k as (k, ±1), ``weights`` and ``bits`` their
    torus weights and parity bits; b_i has weight e_i for i below the
    number r of weights, and the letters of the algebra on b are those of
    ``letter_images``.  Every sign pattern on the support of a b_k
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

    The maps go by index map k -> k'.  Two sign vectors of one index map
    differ by a diagonal flip, ±1 on each b_k, which acts on a letter by its
    character on the letter's parity bits.  So each index map takes one
    ``letter_action``, of its first sign vector; that action maps each
    target chain to ± itself or to neither, and the first sign vector whose
    flip has the needed sign on every target grade gives the element: the
    first action, each letter's sign times the flip's character.  When each
    b_k is one coordinate (the standard basis, and the split vectors at
    q = 0), the index map is the map of coordinates, whatever the signs: the
    n! index maps are enumerated and a sign vector is only a flip mask.  An
    index map acts on grades by a signed permutation of the torus
    coordinates (each image of b_0..b_{r-1} has a signed unit weight) and
    the images of the parity bits.  The first action of each index map
    must map every letter to one of the acted-on grade and pass
    ``liealg.check_automorphism``, against the structure triples built once
    per call; otherwise ``ValueError`` is raised.
    """
    r, grades = len(table.weights[0]), alg.grades
    triples = structure_triples(alg)
    lead = [next(iter(v)) for v in table.vecs]  # a coordinate of each b_k
    single = all(len(v) == 1 for v in table.vecs)
    group: dict[tuple[int, ...], tuple[int, ...]] = {}
    for coords, signings in signed_rotations(alg.sig):
        images = [[(coords[j], j, c) for j, c in v.items()] for v in table.vecs]
        by_index: dict[tuple[int, ...], list] = {}  # index map -> [b_k images of its first signing, signings]
        for signing in signings[:1] if single else signings:
            moved = [table.find.get(frozenset([(i, signing[j] * c) for i, j, c in image])) for image in images]
            if None in moved:
                break  # the supports do not match, whatever the signs
            by_index.setdefault(tuple(k for k, _ in moved), [moved]).append(signing)
        for index, (moved, *found) in by_index.items():
            perm, signs = letter_action(alg, moved)
            if perm in group:  # so(2,0): one letter for two index maps
                continue
            coord = [(0, 0)] * r  # the torus coordinate j of an image is c·(coordinate i)
            for i in range(r):
                ((j, c),) = [(j, c) for j, c in enumerate(table.weights[index[i]]) if c]
                coord[j] = (i, c)
            moves = {table.bits[k]: table.bits[k2] for k, k2 in enumerate(index)}  # parity bit -> image

            def act(g: Grade) -> Grade:
                m, image = g[-1], 0  # the parity's image, one set bit at a time
                while m:
                    m, image = m & (m - 1), image | moves[m & -m]
                return (g[0], *[c * g[1 + i] for i, c in coord], image)

            for x, g in enumerate(grades):
                if grades[perm[x]] != act(g):
                    raise ValueError(
                        f"the symmetry {(perm, signs)} of {alg.name} moves the grade of {alg.labels[x]}"
                    )
            check_automorphism(alg, (perm, signs), triples)
            if any(act(g) != g for g in target):
                continue
            needs = [(g[-1], _sign_on(perm, signs, chain)) for g, chain in target.items()]
            if any(t is None for _, t in needs):
                continue
            first = found[0]
            for signing in signings if single else found:
                mask = 0  # the parity bits of the b_k the flip negates
                for k, j in enumerate(lead):
                    if signing[j] != first[j]:
                        mask |= table.bits[k]
                if all(t == 0 or (-1) ** (m & mask).bit_count() == t for m, t in needs):
                    if mask:
                        signs = tuple(s * (-1) ** (g[-1] & mask).bit_count() for s, g in zip(signs, grades))
                    group[perm] = signs
                    break
    return sorted(group.items())


def _sign_on(perm: Sequence[int], signs: Sequence[int], chain: Mapping[Word, Coeff]) -> Optional[int]:
    """t with (perm, signs) mapping ``chain`` to t·chain, 0 for the empty
    chain (either sign), None when it maps it to neither ±chain."""
    out = 0
    for w, c in chain.items():
        image = chain.get(tuple(map(perm.__getitem__, w)))
        v = c if prod(map(signs.__getitem__, w)) == 1 else -c
        t = 1 if image == v else -1 if image == -v else None
        if t is None or t != (out or t):
            return None
        out = t
    return out


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
