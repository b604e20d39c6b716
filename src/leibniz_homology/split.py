"""The split form of the affine algebras and the reduced Loday complex.

``split_form`` rewrites ``build_affine(sig)`` or ``build_so(sig)`` on a basis
of joint eigenvectors of the split torus, the boosts Y(i,p+i) for
i <= r = min(p,q): the canonical algebra conjugated by the change of basis,
again with integer structure constants, graded by translation count, torus
weights and parity.  ``split_reduction`` names the
grade blocks of its Loday complex that can carry homology: torus weight 0
and trivial character under the sign flips that commute with the torus.
It also builds, once per signature, the finite group whose orbit sums of
those blocks carry all of their homology: the signed permutations of R^n
that keep the p-block and the q-block with det +1 on each and map every
split vector b_k to ±b_k', acting on the split form's letters
(``rotations.symmetry_group`` on the split vectors' ``_split_table``,
with the kept grades as its target).  They lie
in SO(p)×SO(q), inside the identity component SO_0(p,q), which acts
trivially on HL_* (Loday–Pirashvili); over Q the average over the group
is then a chain projection with the same homology.
Without the det condition this fails: with O(p)×O(q) the n = 4 tables lose
their classes in degrees 3 and 4.  ``homology.homology_dims`` imports this
module on its first reduced run, so importing the package does not load it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from ._value import Frozen
from .liealg import (
    BasisLabel,
    BoostY,
    Coeff,
    GenericLabel,
    Grade,
    LieAlgebra,
    Signature,
    accumulate,
    build_affine,
    build_so,
    is_canonical,
)
from .linalg import ExactEliminator
from .repspace import OrbitGroup, Symmetry
from .rotations import BasisTable, letter_images, letter_pairs, symmetry_group

__all__ = ["SplitReduction", "split_form", "split_reduction"]


def _expansion_label(vec: Mapping[int, int], labels: Sequence[BasisLabel]) -> GenericLabel:
    """A label spelling out a combination of standard basis elements."""
    text = "".join(
        f"{'-' if c < 0 else '+'}{abs(c) if abs(c) != 1 else ''}{labels[k]}"
        for k, c in sorted(vec.items())
    )
    return GenericLabel(text.lstrip("+"))


@lru_cache(maxsize=None)
def _split_table(sig: Signature) -> BasisTable:
    """The table of ``sig``: b_i = e_i + e_{p+i} (weight +1 in coordinate i)
    and b_{p+i} = e_i - e_{p+i} (weight -1), both on bit i, for
    i < r = min(p,q); b_k = e_k on bit k for unpaired k."""
    p, n = sig.p, sig.n
    r = min(p, sig.q)
    vecs: list[dict[int, int]] = []
    weights: list[tuple[int, ...]] = []
    bits: list[int] = []
    for k in range(n):
        w = [0] * r
        if k < r:
            vec, bit, w[k] = {k: 1, p + k: 1}, k, 1
        elif p <= k < p + r:
            vec, bit, w[k - p] = {k - p: 1, k: -1}, k - p, -1
        else:
            vec, bit = {k: 1}, k
        vecs.append(vec)
        weights.append(tuple(w))
        bits.append(1 << bit)
    return BasisTable(vecs, weights, bits)


def split_form(alg: LieAlgebra) -> LieAlgebra:
    """``build_affine(sig)`` or ``build_so(sig)`` on a basis of joint
    eigenvectors of the split torus, the boosts Y(i,p+i) for i <= r = min(p,q).

    R^n gets the basis b_i = e_i + e_{p+i}, b_{p+i} = e_i - e_{p+i}
    (i <= r) and b_k = e_k (k unpaired), with torus weight +1, -1 and 0 in
    coordinate i (``_split_table``).  The letters are the d(b_k) and the
    signed b_a ∧ b_b of ``rotations.letter_images``, which gives their images
    in the standard basis; unpaired pairs give exactly X(a,b) or Y(a,b).
    The structure constants are those of ``alg`` in that basis: the bracket
    of two images in ``alg``, written back in the images through the
    inverse of the change of basis; every constant comes out an integer.
    An element is graded (count, torus weights, parity): its weights are
    the sums of its vectors' weights, and its parity the XOR of their bits,
    b_i and b_{p+i} both on bit i, so it is the character under the
    diagonal flips with ε_i = ε_{p+i}, the ones that commute with the
    torus.  Labels spell out each element in the standard basis; the torus
    element for i is -2Y(i,p+i), and it acts by twice the weight.  At
    q = 0 nothing is paired and this is the standard basis.

    Raises ``ValueError`` unless ``alg`` is canonical
    (``liealg.is_canonical``), the images span the algebra, every constant
    is an integer, every element's parity and count are those of its
    standard terms and the torus elements act by their weights.
    """
    if not is_canonical(alg):
        raise ValueError(f"{alg.name} is not so(p,q) or h_n on the canonical basis")
    sig = alg.sig
    p, r, dim = sig.p, min(sig.p, sig.q), alg.dim
    table = _split_table(sig)
    weights, bits = table.weights, table.bits
    pairs, wedge = letter_pairs(sig)
    nt = dim - len(pairs)
    images = letter_images(sig, nt, table.vecs)
    grades: list[Grade] = [(1,) + weights[w] + (bits[w],) for w in range(nt)]
    for a, b in pairs:
        weight = tuple(x + y for x, y in zip(weights[a], weights[b]))
        grades.append((0,) + weight + (bits[a] ^ bits[b],))
    labels = [_expansion_label(img, alg.labels) for img in images]

    def fail(message: str) -> ValueError:
        return ValueError(f"the split form of {alg.name} is wrong: {message}")

    # scale·e_k = Σ inverse[k][x]·images[x], from the relation of each
    # standard letter e_k, fed after the images, on them
    elim = ExactEliminator(dim, track=True)
    for img in images:
        elim.add_column(sorted(img.items()))
    if elim.rank != dim:
        raise fail(f"its {dim} elements span only {elim.rank} dimensions")
    relations = []
    for k in range(dim):
        elim.add_column([(k, 1)])
        relation = elim.relation
        relations.append((relation.pop(dim + k), relation))
    scale = math.lcm(*(c for c, _ in relations))
    inverse = [{x: -v * (scale // c) for x, v in rel.items()} for c, rel in relations]
    structure: dict[tuple[int, int], dict[int, int]] = {}
    for x in range(dim):
        for y in range(x + 1, dim):
            direct: dict[int, Coeff] = {}
            for i, u in images[x].items():
                for j, v in images[y].items():
                    for k, t in alg.bracket(i, j).items():
                        accumulate(direct, k, u * v * t)
            vec: dict[int, int] = {}
            for k, t in direct.items():
                for z, v in inverse[k].items():
                    accumulate(vec, z, t * v)
            if any(v % scale for v in vec.values()):
                raise fail(f"[{labels[x]}, {labels[y]}] has a constant that is no integer")
            if vec:
                structure[(x, y)] = {z: v // scale for z, v in vec.items()}
                structure[(y, x)] = {z: -v // scale for z, v in vec.items()}
    split = LieAlgebra(labels, structure, grades=grades, sig=sig, name=f"{alg.name}-split")

    fold = ((1 << r) - 1) << p
    for x, img in enumerate(images):
        for k in img:
            c, s = alg.grades[k][0], alg.grades[k][-1]
            if (c, (s & ~fold) ^ ((s & fold) >> p)) != (split.grades[x][0], split.grades[x][-1]):
                raise fail(f"{labels[x]} has the term {alg.labels[k]} of another count or parity")
    for i in range(r):
        t = nt + wedge[(i, p + i)][0]
        if images[t] != {alg.index(BoostY(i + 1, p + i + 1)): -2}:
            raise fail(f"{labels[t]} is not -2Y({i + 1},{p + i + 1})")
        for x in range(dim):
            w = split.grades[x][1 + i]
            if split.bracket(t, x) != ({x: 2 * w} if w else {}):
                raise fail(f"{labels[t]} does not act on {labels[x]} by twice its weight {w}")
    return split


class SplitReduction(Frozen):
    """The grade blocks of the Loday complex of ``build_affine(sig)`` or
    ``build_so(sig)`` that can carry homology, as blocks of its split form.

    Every x in g acts on ``HL_*(g)`` by a null-homotopic map
    (Loday–Pirashvili).  The torus elements -2Y(i,p+i) act on a word of the
    split form by twice its torus weight, so every block of nonzero weight
    is acyclic.  The identity component of the automorphism group acts
    trivially too; it contains the diagonal flips with ε_i = ε_{p+i}
    (i <= r) and product +1 on each block of the form, which commute with
    the torus, and every block on whose parity one of them is -1 is acyclic.

    ``algebra`` is the split form, ``torus`` the boosts whose weights must
    vanish, ``flips`` generating masks of those flips on the split parities
    (bit i for ε_i, i <= r standing for ε_{p+i} too) and ``kept`` the
    parities on which every flip is +1.  A block is kept when its weights
    are all 0 and its parity is kept.  ``symmetries`` is the group of the
    module docstring as (letter permutation, letter signs), one element per
    letter permutation, the identity first; every element fixes every kept
    grade, so it acts on each kept block (``repspace.OrbitBlock``).
    """

    _fields = ("torus", "flips", "kept")  # equality, hash and repr skip the other two

    def __init__(
        self, algebra: LieAlgebra, torus: tuple[BasisLabel, ...], flips: tuple[int, ...],
        kept: tuple[int, ...], symmetries: tuple[Symmetry, ...],
    ) -> None:
        d = self.__dict__
        d.update(algebra=algebra, torus=torus, flips=flips, kept=kept, symmetries=symmetries)

    def keeps(self, grade: Grade) -> bool:
        return grade[-1] in self.kept and not any(grade[1:-1])

    def grades(self, k: int) -> list[Grade]:
        """The grades ``keeps`` accepts that a word of length k could have:
        count c <= k, every weight 0 and a kept parity."""
        zeros = (0,) * len(self.torus)
        return [(c, *zeros, m) for c in range(k + 1) for m in self.kept]

    def to_json_dict(self) -> dict:
        return {
            "torus": [str(t) for t in self.torus],
            "flips": list(self.flips),
            "kept_parities": list(self.kept),
            "group_order": len(self.symmetries),
        }


def split_reduction(alg: LieAlgebra) -> Optional[SplitReduction]:
    """The reduction of the Loday complex of ``alg``, or None when every
    block must be ranked.

    The argument needs the canonical structure, so the reduction is given
    only for an algebra equal to ``build_affine(sig)`` or ``build_so(sig)``:
    same labels, grades and structure constants.  Every other algebra (I_n,
    abelian extensions, hand-built tables, copies built with ``sig=None``)
    keeps all blocks.  The split form is built on the first call per
    signature and cached.
    """
    if not is_canonical(alg):
        return None
    return _split_reduction(alg.sig, bool(alg.translation_indices))


def _even(mask: int) -> bool:
    return bin(mask).count("1") % 2 == 0


@lru_cache(maxsize=None)
def _split_reduction(sig: Signature, affine: bool) -> SplitReduction:
    alg = build_affine(sig) if affine else build_so(sig)
    split = split_form(alg)
    p, n = sig.p, sig.n
    r = min(p, sig.q)
    free = ((1 << n) - 1) ^ (((1 << r) - 1) << p)  # the bits a split parity can have
    p_block = (1 << p) - 1
    q_block = (free & ~p_block) | ((1 << r) - 1)
    masks = [m for m in range(1 << n) if not m & ~free]
    flips: list[int] = []
    span = {0}
    for m in masks:
        if _even(m & p_block) and _even(m & q_block) and m not in span:
            flips.append(m)
            span |= {x ^ m for x in span}
    kept = tuple(m for m in masks if all(_even(m & f) for f in flips))
    torus = tuple(BoostY(i, p + i) for i in range(1, r + 1))
    zeros = (0,) * r
    group = symmetry_group(split, _split_table(sig), {(0, *zeros, m): {} for m in kept})
    return SplitReduction(split, torus, tuple(flips), kept, OrbitGroup(group))
