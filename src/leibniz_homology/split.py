"""The split form of the affine algebras and the reduced Loday complex.

``split_form`` rewrites ``build_affine(sig)`` or ``build_so(sig)`` on a basis
of joint eigenvectors of the split torus, the boosts Y(i,p+i) for
i <= r = min(p,q), again with integer structure constants, graded by
translation count, torus weights and parity.  ``split_reduction`` names the
grade blocks of its Loday complex that can carry homology: torus weight 0
and trivial character under the sign flips that commute with the torus.
It also builds, once per signature, the finite group whose orbit sums of
those blocks carry all of their homology: the signed permutations of R^n
that keep the p-block and the q-block with det +1 on each and map every
split vector b_k to ±b_k', acting on the split form's letters by the
signed permutations that this map on the split vectors induces.  They lie
in SO(p)×SO(q), inside the identity component SO_0(p,q), which acts
trivially on HL_* (Loday–Pirashvili); over Q the average over the group
is then a chain projection with the same homology.
Without the det condition this fails: with O(p)×O(q) the n = 4 tables lose
their classes in degrees 3 and 4.  ``homology.homology_dims`` imports this
module on its first reduced run, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations, product
from math import prod
from operator import mul
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .liealg import (
    BasisLabel,
    BoostY,
    Coeff,
    GenericLabel,
    Grade,
    LieAlgebra,
    Signature,
    Translation,
    accumulate,
    build_affine,
    build_so,
    so_labels,
)
from .linalg import ExactEliminator
from .repspace import Symmetry, _perm_sign

__all__ = ["SplitReduction", "split_form", "split_reduction"]


def _pair_sign(k: int, l: int, p: int) -> int:
    """The sign s with e_k ∧ e_l = s·(the X or Y label of the pair), 0-based
    k < l: the field of x -> e_k B(e_l, x) - e_l B(e_k, x) is X(k+1,l+1) in
    the p-block, and -X(k+1,l+1) in the q-block or -Y(k+1,l+1) across."""
    return 1 if l < p else -1


def _expansion_label(vec: Mapping[int, int], labels: Sequence[BasisLabel]) -> GenericLabel:
    """A label spelling out a combination of standard basis elements."""
    text = "".join(
        f"{'-' if c < 0 else '+'}{abs(c) if abs(c) != 1 else ''}{labels[k]}"
        for k, c in sorted(vec.items())
    )
    return GenericLabel(text.lstrip("+"))


class _SplitTable(NamedTuple):
    """The split basis of one signature and the letters of Λ²R^n on it.

    ``vecs`` holds the b_k in standard coordinates (0-based), ``find`` each
    ±b_k as (k, ±1), ``weights`` and ``bits`` their torus weights and parity
    bits.  Letter t is ``_pair_sign(a, b, p)·b_a ∧ b_b`` for
    ``pairs[t] = (a, b)``, in the order of ``so_labels``, and
    ``wedge[(a, b)] = (t, s)`` for a != b when b_a ∧ b_b = s·letter t; in
    the standard basis, e_a ∧ e_b = s·``so_labels(sig)[t]`` alike.
    """

    vecs: list[dict[int, int]]
    find: dict[frozenset, tuple[int, int]]
    weights: list[tuple[int, ...]]
    bits: list[int]
    pairs: list[tuple[int, int]]
    wedge: dict[tuple[int, int], tuple[int, int]]


@lru_cache(maxsize=None)
def _split_table(sig: Signature) -> _SplitTable:
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
    find = {}
    for k, vec in enumerate(vecs):
        find[frozenset(vec.items())] = (k, 1)
        find[frozenset((j, -c) for j, c in vec.items())] = (k, -1)
    pairs = [(lab.i - 1, lab.j - 1) for lab in so_labels(sig)]
    wedge = {}
    for t, (a, b) in enumerate(pairs):
        wedge[(a, b)] = (t, _pair_sign(a, b, p))
        wedge[(b, a)] = (t, -_pair_sign(a, b, p))
    return _SplitTable(vecs, find, weights, bits, pairs, wedge)


def split_form(alg: LieAlgebra) -> LieAlgebra:
    """``build_affine(sig)`` or ``build_so(sig)`` on a basis of joint
    eigenvectors of the split torus, the boosts Y(i,p+i) for i <= r = min(p,q).

    In closed form: R^n gets the basis b_i = e_i + e_{p+i},
    b_{p+i} = e_i - e_{p+i} (i <= r) and b_k = e_k (k unpaired), with
    torus weight +1, -1 and 0 in coordinate i.  The translations are the
    d(b_k), and so(p,q) ≅ Λ²R^n is spanned by the b_a ∧ b_b, signed so that
    unpaired pairs give exactly X(a,b) or Y(a,b).  With the quadratic form B,

        [u∧v, d(w)] = B(u,w) d(v) - B(v,w) d(u)
        [u∧v, w∧z] = -B(v,w) u∧z + B(v,z) u∧w + B(u,w) v∧z - B(u,z) v∧w,

    all integers.  An element is graded (count, torus weights, parity): its
    weights are the sums of its vectors' weights, and its parity the XOR of
    their bits, b_i and b_{p+i} both on bit i, so it is the character under
    the diagonal flips with ε_i = ε_{p+i}, the ones that commute with the
    torus.  Labels spell out each element in the standard basis; the torus
    element for i is -2Y(i,p+i), and it acts by twice the weight.  At
    q = 0 nothing is paired and this is the standard basis.

    The construction is checked against ``alg`` and raises ``ValueError``
    unless the map to the standard basis is injective and carries every
    split bracket to the bracket of ``alg``, the torus elements act by
    their weights, and every element's parity and count are those of its
    standard terms.
    """
    sig = alg.sig
    so = so_labels(sig) if sig is not None and sig.n >= 2 else []
    nt = sig.n if so and alg.translation_indices else 0
    expected = [Translation(k + 1) for k in range(nt)] + so
    if not so or set(alg.labels) != set(expected) or alg.dim != len(expected):
        raise ValueError(f"{alg.name} is not so(p,q) or h_n on the canonical basis")
    p, n = sig.p, sig.n
    r = min(p, sig.q)
    vecs, _, weights, bits, pairs, wedge = _split_table(sig)
    metric = [1] * p + [-1] * (n - p)
    gram = [[sum(metric[k] * c * v.get(k, 0) for k, c in u.items()) for v in vecs] for u in vecs]
    structure: dict[tuple[int, int], dict[int, int]] = {}

    def put(x: int, y: int, vec: dict[int, int]) -> None:
        if vec:
            structure[(x, y)] = vec
            structure[(y, x)] = {c: -v for c, v in vec.items()}

    for x, (a, b) in enumerate(pairs, nt):
        sx = _pair_sign(a, b, p)
        for w in range(nt):
            vec: dict[int, int] = {}
            accumulate(vec, b, sx * gram[a][w])
            accumulate(vec, a, -sx * gram[b][w])
            put(x, w, vec)
        for y, (c, d) in enumerate(pairs[x - nt + 1:], x + 1):
            vec = {}
            for coef, u, v in (
                (-gram[b][c], a, d), (gram[b][d], a, c), (gram[a][c], b, d), (-gram[a][d], b, c)
            ):
                if coef and u != v:
                    t, s = wedge[(u, v)]
                    accumulate(vec, nt + t, sx * _pair_sign(c, d, p) * coef * s)
            put(x, y, vec)

    # the images in the standard basis, and the grades
    images: list[dict[int, int]] = [
        {alg.index(Translation(k + 1)): c for k, c in vecs[w].items()} for w in range(nt)
    ]
    grades: list[Grade] = [(1,) + weights[w] + (bits[w],) for w in range(nt)]
    for a, b in pairs:
        img: dict[int, int] = {}
        for k, u in vecs[a].items():
            for l, v in vecs[b].items():
                if k != l:
                    t, s = wedge[(k, l)]
                    accumulate(img, alg.index(so[t]), _pair_sign(a, b, p) * s * u * v)
        images.append(img)
        weight = tuple(x + y for x, y in zip(weights[a], weights[b]))
        grades.append((0,) + weight + (bits[a] ^ bits[b],))
    labels = [_expansion_label(img, alg.labels) for img in images]
    split = LieAlgebra(labels, structure, grades=grades, sig=sig, name=f"{alg.name}-split")

    def fail(message: str) -> ValueError:
        return ValueError(f"the split form of {alg.name} is wrong: {message}")

    elim = ExactEliminator(alg.dim)
    for img in images:
        elim.add_column(sorted(img.items()))
    if elim.rank != alg.dim:
        raise fail(f"its {alg.dim} elements span only {elim.rank} dimensions")
    for x in range(alg.dim):
        for y in range(x + 1, alg.dim):
            mapped: dict[int, int] = {}
            for c, v in split.bracket(x, y).items():
                for k, t in images[c].items():
                    accumulate(mapped, k, v * t)
            direct: dict[int, Coeff] = {}
            for i, u in images[x].items():
                for j, v in images[y].items():
                    for k, t in alg.bracket(i, j).items():
                        accumulate(direct, k, u * v * t)
            if mapped != direct:
                raise fail(
                    f"[{labels[x]}, {labels[y]}] maps to {_expansion_label(mapped, alg.labels)}, "
                    f"but the bracket of the images is {_expansion_label(direct, alg.labels)}"
                )
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
        for x in range(alg.dim):
            w = split.grades[x][1 + i]
            if split.bracket(t, x) != ({x: 2 * w} if w else {}):
                raise fail(f"{labels[t]} does not act on {labels[x]} by twice its weight {w}")
    return split


@dataclass(frozen=True)
class SplitReduction:
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

    algebra: LieAlgebra = field(compare=False, repr=False)
    torus: tuple[BasisLabel, ...]
    flips: tuple[int, ...]
    kept: tuple[int, ...]
    symmetries: tuple[Symmetry, ...] = field(compare=False, repr=False)

    def keeps(self, grade: Grade) -> bool:
        return grade[-1] in self.kept and not any(grade[1:-1])

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
    sig = alg.sig
    if sig is None or sig.n < 2:
        return None
    affine = bool(alg.translation_indices)
    ref = build_affine(sig) if affine else build_so(sig)
    if (alg.labels, alg.grades, alg.structure) != (ref.labels, ref.grades, ref.structure):
        return None
    return _split_reduction(sig, affine)


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
    group = _symmetry_group(split, span, kept)
    return SplitReduction(split, torus, tuple(flips), kept, group)


def _symmetry_group(
    split: LieAlgebra, flips: set[int], kept: Sequence[int]
) -> tuple[Symmetry, ...]:
    """The signed permutations of R^n in SO(p)×SO(q) that map each split
    vector to ± a split vector, as actions on the letters of ``split``, one
    per letter permutation, sorted (the identity first).

    ``flips`` is the group of the reduction's flips, as masks.  The first
    element with a letter permutation is checked in full
    (``_check_symmetry``); every later one must differ from it by one of
    the flips, which is +1 on every kept grade, or ``ValueError`` is raised.
    """
    flip_signs = {tuple(1 if _even(f & g[-1]) else -1 for g in split.grades) for f in flips}
    group: dict[tuple[int, ...], tuple[int, ...]] = {}
    for perm, signs in _rotations(split.sig):
        (letter_perm, letter_signs), moved = _symmetry(split, perm, signs)
        if letter_perm not in group:
            _check_symmetry(split, kept, (letter_perm, letter_signs), moved)
            group[letter_perm] = letter_signs
        elif tuple(map(mul, group[letter_perm], letter_signs)) not in flip_signs:
            raise ValueError(
                f"two symmetries of {split.name} with one letter permutation "
                "differ by more than a sign flip"
            )
    return tuple(sorted(group.items()))


def _rotations(sig: Signature) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The maps e_k -> signs[k]·e_{perm[k]} (0-based) with det +1 on the
    p-block and on the q-block that map the pairs (i, p+i), i < min(p,q),
    to pairs, as (perm, signs)."""
    p, n = sig.p, sig.n
    r = min(p, sig.q)
    for head in permutations(range(p)):
        for tail in permutations(range(p, n)):
            perm = head + tail
            # b_i = e_i + e_{p+i} must go to ±b_j or ±b_{p+j}: pairs go to pairs
            if any(perm[i] >= r or perm[p + i] != p + perm[i] for i in range(r)):
                continue
            dets = (_perm_sign(head), _perm_sign([t - p for t in tail]))
            for signs in product((1, -1), repeat=n):
                if (prod(signs[:p]), prod(signs[p:])) == dets:
                    yield perm, signs


def _symmetry(
    split: LieAlgebra, perm: Sequence[int], signs: Sequence[int]
) -> tuple[Symmetry, list[tuple[int, int]]]:
    """The action of e_k -> signs[k]·e_{perm[k]} (0-based) on the split
    vectors, b_k -> s_k·b_k' as (k', s_k), and the action it induces on the
    letters of the split form ``split``: d(b_k) -> s_k·d(b_k'), and the
    letter ``_pair_sign(a, b, p)·b_a ∧ b_b`` of a pair (a, b) to
    ``_pair_sign(a, b, p)·s_a·s_b·b_a' ∧ b_b'``, ± the letter of the pair
    {a', b'} (``_SplitTable.wedge``).

    Raises ``ValueError`` unless the map keeps the p-block and the q-block
    with det +1 on each and maps each split vector to ± a split vector.
    """
    sig = split.sig
    p, n = sig.p, sig.n
    table = _split_table(sig)

    def fail(message: str) -> ValueError:
        return ValueError(
            f"the map e_k -> s_k e_π(k) with π = {list(perm)}, s = {list(signs)} "
            f"on {split.name} {message}"
        )

    for block in (range(p), range(p, n)):
        if sorted(perm[k] for k in block) != list(block):
            raise fail(f"does not keep the block {list(block)}")
        if _perm_sign([perm[k] - block.start for k in block]) * prod(signs[k] for k in block) != 1:
            raise fail(f"has det -1 on the block {list(block)}")
    moved = [
        table.find.get(frozenset((perm[j], signs[j] * c) for j, c in v.items())) for v in table.vecs
    ]
    if None in moved:
        raise fail("maps a split vector to no split vector up to sign")
    nt = split.dim - len(table.pairs)
    letter_perm, letter_signs = [k for k, _ in moved[:nt]], [s for _, s in moved[:nt]]
    for a, b in table.pairs:
        (a2, sa), (b2, sb) = moved[a], moved[b]
        t, s = table.wedge[(a2, b2)]
        letter_perm.append(nt + t)
        letter_signs.append(_pair_sign(a, b, p) * sa * sb * s)
    return (tuple(letter_perm), tuple(letter_signs)), moved


def _check_symmetry(
    split: LieAlgebra, kept: Sequence[int], sym: Symmetry, moved: Sequence[tuple[int, int]]
) -> None:
    """Raises ``ValueError`` unless the letter action ``sym`` is an
    automorphism of ``split`` and, with the split-vector map ``moved``,
    fixes every grade of torus weight 0 and kept parity.

    The vector map gives an action on grades: weights by the signed
    permutation of the torus coordinates, parities by the permutation of
    their bits.  Every letter must go to a letter of the acted-on grade, so
    a word does too, and the kept grades must be fixed points.
    """
    sig = split.sig
    r = min(sig.p, sig.q)
    perm, signs = sym
    table = _split_table(sig)

    def fail(message: str) -> ValueError:
        return ValueError(f"the symmetry {sym} of {split.name} {message}")

    bit_map: dict[int, int] = {}
    for k, (k2, _) in enumerate(moved):
        if bit_map.setdefault(table.bits[k], table.bits[k2]) != table.bits[k2]:
            raise fail("maps one parity bit to two")

    def act_grade(g: Grade) -> Grade:
        weight = [0] * r
        for i in range(r):
            for j, x in enumerate(table.weights[moved[i][0]]):
                weight[j] += g[1 + i] * x
        parity = sum(b2 for b, b2 in bit_map.items() if g[-1] & b)
        return (g[0], *weight, parity)

    for x in range(split.dim):
        if split.grades[perm[x]] != act_grade(split.grades[x]):
            raise fail(f"moves the grade of {split.labels[x]} off its action on grades")
    # perm is a bijection (moved permutes the split vectors), so it maps
    # the pairs with a nonzero bracket into, hence onto, themselves: zero
    # brackets go to zero brackets
    for (x, y), vec in split.structure.items():
        image = {perm[c]: signs[c] * v for c, v in vec.items()}
        s = signs[x] * signs[y]
        if image != {c: s * v for c, v in split.bracket(perm[x], perm[y]).items()}:
            raise fail(f"is no automorphism: [{split.labels[x]}, {split.labels[y]}]")
    zero = (0,) * (r + 1)
    for m in kept:
        if act_grade(zero + (m,)) != zero + (m,):
            raise fail(f"moves the kept parity {m}")
