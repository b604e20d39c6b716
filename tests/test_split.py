"""The split form of the affine algebras: the canonical algebra conjugated
to the split basis, and the checks the construction keeps."""

import math
import re
from fractions import Fraction

import pytest

from leibniz_homology import (
    BoostY,
    LieAlgebra,
    RotationX,
    Signature,
    Translation,
    build_abelian,
    build_affine,
    build_so,
    homology_dims,
    validate,
)
from leibniz_homology import liealg, rotations, split
from leibniz_homology.liealg import accumulate, check_automorphism, so_labels
from leibniz_homology.linalg import ExactEliminator
from leibniz_homology.repspace import GradeBlock, graded_words
from leibniz_homology.rotations import BasisTable, letter_action, signed_rotations
from leibniz_homology.split import split_form, split_reduction


SPLIT_CASES = [
    (build_affine, (2, 2)),
    (build_affine, (3, 1)),
    (build_affine, (1, 3)),
    (build_affine, (4, 0)),
    (build_affine, (2, 3)),
    (build_affine, (3, 3)),
    (build_so, (2, 1)),
]


@pytest.mark.parametrize(
    "build, pq",
    [pytest.param(b, pq, id=f"{b.__name__[6:]}{pq[0]}{pq[1]}") for b, pq in SPLIT_CASES],
)
def test_split_form_is_isomorphic(build, pq):
    # the split table is a Lie algebra with integer constants and torus weights
    alg = build(Signature(*pq))
    split = split_form(alg)
    r = min(pq)
    assert split.dim == alg.dim and validate(split).ok
    assert all(type(v) is int for vec in split.structure.values() for v in vec.values())
    assert all(len(g) == r + 2 for g in split.grades)
    if r == 0:  # nothing to pair: the standard basis itself
        assert split.structure == alg.structure and split.grades == alg.grades
        assert [str(lab) for lab in split.labels] == [str(lab) for lab in alg.labels]
    else:
        torus = [str(lab) for lab in split.labels if str(lab).startswith("-2Y(")]
        assert torus == [f"-2Y({i},{pq[0] + i})" for i in range(1, r + 1)]


def _corrupted(alg):
    """A copy of ``alg`` with one structure constant doubled (antisymmetry
    and the grading still hold)."""
    structure = {pair: dict(vec) for pair, vec in alg.structure.items()}
    a, b = alg.index(RotationX(1, 2)), alg.index(BoostY(1, alg.sig.n))
    (c, v), = structure[(a, b)].items()
    structure[(a, b)][c] = 2 * v
    structure[(b, a)][c] = -2 * v
    return LieAlgebra(alg.labels, structure, grades=alg.grades, sig=alg.sig, name=alg.name)


@pytest.mark.parametrize("pq", [(2, 2), (3, 1), (3, 3)], ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_split_form_rejects_corrupted_constants(pq):
    # only the canonical algebras have a split form: a corrupted constant,
    # another basis or the split form itself is refused
    h = build_affine(Signature(*pq))
    for alg in (
        _corrupted(h),
        _corrupted(build_so(Signature(*pq))),
        build_abelian(3),
        LieAlgebra(h.labels[1:], {}, sig=h.sig),
        split_form(h),
    ):
        with pytest.raises(ValueError, match="canonical basis"):
            split_form(alg)


ALL_CASES = [(b, (p, n - p)) for n in range(2, 7) for p in range(n, 0, -1) for b in (build_affine, build_so)]


@pytest.mark.parametrize(
    "build, pq",
    [pytest.param(b, pq, id=f"{b.__name__[6:]}{pq[0]}{pq[1]}") for b, pq in ALL_CASES],
)
def test_split_brackets_map_to_brackets_of_the_images(build, pq):
    # the split constants are the canonical ones in another basis: the
    # images of the split letters, read off their labels, span the algebra,
    # and every split bracket, mapped back through them, is the bracket of
    # the two images
    alg = build(Signature(*pq))
    form = split_form(alg)
    images = _standard_images(form, alg)
    elim = ExactEliminator(alg.dim)
    for img in images:
        elim.add_column(sorted(img.items()))
    assert elim.rank == alg.dim
    for x in range(alg.dim):
        for y in range(alg.dim):
            mapped: dict = {}
            for c, v in form.bracket(x, y).items():
                for k, t in images[c].items():
                    accumulate(mapped, k, v * t)
            direct: dict = {}
            for i, u in images[x].items():
                for j, v in images[y].items():
                    for k, t in alg.bracket(i, j).items():
                        accumulate(direct, k, u * v * t)
            assert mapped == direct, (form.labels[x], form.labels[y])


def test_split_form_rejects_a_non_integral_change_of_basis(monkeypatch):
    # b_0 = e_0/2 at q = 0: [d(b_0), b_0 ∧ b_1] = d(b_1)/4.  An integral
    # basis such as b_0 = 2e_0 cannot hit this: its constants are integer
    # combinations of the B(b_a, b_b)
    sig = Signature(4, 0)
    table = split._split_table(sig)
    halved = BasisTable([{0: Fraction(1, 2)}] + table.vecs[1:], table.weights, table.bits)
    monkeypatch.setattr(split, "_split_table", lambda sig: halved)
    with pytest.raises(ValueError, match=r"\[1/2d\(1\), 1/2X\(1,2\)\] has a constant that is no integer"):
        split_form(build_affine(sig))
    with pytest.raises(ValueError, match="has a constant that is no integer"):
        split_form(build_so(sig))


def _regrading(regrade):
    """``LieAlgebra`` with ``regrade`` applied to every grade it is given."""

    def regraded(labels, structure, *, grades, **kwargs):
        return LieAlgebra(labels, structure, grades=[regrade(g) for g in grades], **kwargs)

    return regraded


def _weight_as_count(g):
    """The translation count in place of the first torus weight."""
    return (g[0], g[0]) + g[2:]


@pytest.mark.parametrize(
    "regrade, message",
    [
        (_weight_as_count, "does not act on .* by twice its weight 1"),
        # every parity 0
        (lambda g: g[:-1] + (0,), "of another count or parity"),
    ],
    ids=["weight", "parity"],
)
def test_split_form_rejects_gradings_of_other_origin(monkeypatch, regrade, message):
    # both are valid gradings, but the first is not the eigenvalues of a
    # torus element and the second not the characters of the flips
    monkeypatch.setattr(split, "LieAlgebra", _regrading(regrade))
    with pytest.raises(ValueError, match=message):
        split_form(build_affine(Signature(2, 2)))


def test_split_form_check_survives_optimisation(run_python):
    # the canonical refusal, the torus-weight check and the group check
    # raise, so python -O does not strip them
    code = (
        "import sys\n"
        "import pytest\n"
        "from leibniz_homology import Signature, build_affine, split\n"
        "from leibniz_homology.split import _split_reduction, split_form\n"
        "from test_complexes import _flip_first_letter\n"
        "from test_split import _corrupted, _regrading, _weight_as_count\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "try:\n"
        "    split_form(_corrupted(build_affine(Signature(2, 2))))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('a corrupted constant passed')\n"
        "with pytest.MonkeyPatch.context() as mp:\n"
        "    mp.setattr(split, 'LieAlgebra', _regrading(_weight_as_count))\n"
        "    try:\n"
        "        split_form(build_affine(Signature(2, 2)))\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        sys.exit('a torus weight of another origin passed')\n"
        "with pytest.MonkeyPatch.context() as mp:\n"
        "    _flip_first_letter(mp)\n"
        "    try:\n"
        "        _split_reduction.__wrapped__(Signature(2, 2), True)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        sys.exit('a broken symmetry passed')\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "canonical basis" in proc.stdout and "is no automorphism" in proc.stdout
    assert "by twice its weight" in proc.stdout


def _moved(table, perm, signs):
    """(k', ±1) with e_k -> signs[k]·e_{perm[k]} sending b_k to ±b_k', for
    each vector b_k of ``table``; None for a b_k sent to no ±b_k'."""
    return [
        table.find.get(frozenset((perm[j], signs[j] * c) for j, c in vec.items())) for vec in table.vecs
    ]


def _candidates(alg, table):
    """(perm, signs, letter action) for every map of ``signed_rotations``
    that sends each vector of ``table`` to ± one of them: every sign
    vector, where the group builder keeps one per element."""
    for perm, signings in signed_rotations(alg.sig):
        for signs in signings:
            moved = _moved(table, perm, signs)
            if None not in moved:
                yield perm, signs, letter_action(alg, moved)


def _group_of(monkeypatch, rotations_of_sig):
    """The orbit group of the split h(2,2) built from the signed rotations
    ``rotations_of_sig`` lists."""
    form = split_reduction(build_affine(Signature(2, 2))).algebra
    monkeypatch.setattr(rotations, "signed_rotations", lambda sig: iter(rotations_of_sig))
    return rotations.symmetry_group(form, split._split_table(form.sig), {})


def _block_det(perm, signs, block):
    """det of e_k -> signs[k]·e_{perm[k]} on ``block``, which it keeps: the
    sign of the permutation by its inversions times the signs."""
    inversions = sum(perm[a] > perm[b] for a in block for b in block if a < b)
    return (-1) ** inversions * math.prod(signs[k] for k in block)


@pytest.mark.parametrize(
    "pq", [(p, n - p) for n in range(2, 7) for p in range(n, 0, -1)], ids=lambda pq: f"{pq[0]}_{pq[1]}"
)
def test_signed_rotations_are_in_so_p_times_so_q(pq):
    # the group builder takes membership in SO(p)×SO(q) from
    # ``signed_rotations`` unchecked: every map it yields keeps both blocks
    # with det +1 on each, and it yields each of them once
    p, q = pq
    maps = [(perm, signs) for perm, signings in signed_rotations(Signature(p, q)) for signs in signings]
    for perm, signs in maps:
        for block in (range(p), range(p, p + q)):
            assert sorted(perm[k] for k in block) == list(block), (perm, signs)
            assert _block_det(perm, signs, block) == 1, (perm, signs)
    assert len(set(maps)) == len(maps) == math.factorial(p) * math.factorial(q) * 2 ** (p + q - 1 - (q > 0))


def test_symmetry_with_det_minus_one_is_rejected(monkeypatch):
    # O(p)×O(q) elements outside SO(p)×SO(q) can act by -1 on homology;
    # ``signed_rotations`` yields none of them, so the group holds none of
    # their actions: e1 -> -e1, a reflection of the p-block, and
    # e1 <-> e2, e3 <-> e4, det -1 on both blocks
    red = split_reduction(build_affine(Signature(2, 2)))
    table = split._split_table(red.algebra.sig)
    for perm, signs in [((0, 1, 2, 3), (-1, 1, 1, 1)), ((1, 0, 3, 2), (1, 1, 1, 1))]:
        assert letter_action(red.algebra, _moved(table, perm, signs)) not in red.symmetries
    # the same swaps with one sign in each block are rotations, kept up to
    # the flip -I
    ((perm, _),) = _group_of(monkeypatch, [((1, 0, 3, 2), [(-1, 1, -1, 1)])])
    assert perm in {perm for perm, _ in red.symmetries}


def test_symmetry_that_breaks_a_bracket_is_rejected(monkeypatch):
    # the rotation e1 <-> e2, e3 <-> e4 (one sign in each block) with the
    # sign of the translation d(b_0) flipped in its letter action
    def broken(alg, moved):
        letters, letter_signs = letter_action(alg, moved)
        if any(k != k2 for k, (k2, _) in enumerate(moved)):
            letter_signs = (-letter_signs[0],) + letter_signs[1:]
        return letters, letter_signs

    rotation = [((1, 0, 3, 2), [(-1, 1, -1, 1)])]
    assert len(_group_of(monkeypatch, rotation)) == 1
    monkeypatch.setattr(rotations, "letter_action", broken)
    with pytest.raises(ValueError, match="is no automorphism"):
        _group_of(monkeypatch, rotation)


def test_symmetry_check_rejects_hand_made_actions(monkeypatch):
    # at (2,2) the split vectors b_0, b_2 sit on parity bit 0 and b_1, b_3
    # on bit 1; the letters 0 and 1 are d(b_0) and d(b_1)
    form = split_reduction(build_affine(Signature(2, 2))).algebra
    table = split._split_table(form.sig)
    zeros = (0,) * (len(form.grades[0]) - 2)
    rotation = ((1, 0, 3, 2), [(-1, 1, -1, 1)])
    monkeypatch.setattr(rotations, "signed_rotations", lambda sig: iter([rotation]))
    # the rotation swaps the bits: it fixes the parity 0b11 but moves 0b01,
    # so a target on 0b01 filters it out rather than keep it
    assert len(rotations.symmetry_group(form, table, {(0, *zeros, 3): {}})) == 1
    assert rotations.symmetry_group(form, table, {(0, *zeros, 1): {}}) == []

    # the letters of d(b_0) and d(b_1) swapped, the split vectors kept
    def swap_first_letters(alg, moved):
        letters, letter_signs = letter_action(alg, moved)
        return (letters[1], letters[0]) + letters[2:], letter_signs

    monkeypatch.setattr(rotations, "letter_action", swap_first_letters)
    with pytest.raises(ValueError, match=r"moves the grade of d\(1\)\+d\(3\)"):
        _group_of(monkeypatch, [((0, 1, 2, 3), [(1, 1, 1, 1)])])


def test_so2_keeps_one_action_for_two_index_maps():
    # so(2,0) has one letter, X(1,2), and the quarter turn e1 -> e2,
    # e2 -> -e1 acts on it as the identity does, with another index map
    so2 = build_so(Signature(2, 0))
    assert split_reduction(so2).symmetries == (((0,), (1,)),)
    assert rotations.chain_symmetries(so2, {so2.grades[0]: {(0,): 1}}) is None
    assert homology_dims(so2, 3).betti == [1, 1, 1, 1]


def _signed_lookup(vectors):
    """Each vector and its negative, keyed by its entries: (position, ±1)."""
    out = {}
    for k, vec in enumerate(vectors):
        out[frozenset(vec.items())] = (k, 1)
        out[frozenset((j, -c) for j, c in vec.items())] = (k, -1)
    return out


def _standard_images(form, alg):
    """Each letter of the split form in the standard basis of ``alg``, read
    off its label (a signed sum such as ``-X(1,2)+2Y(1,3)``)."""
    index = {str(lab): k for k, lab in enumerate(alg.labels)}
    terms = (re.findall(r"([+-]?)(\d*)([^+-]+)", str(label)) for label in form.labels)
    return [{index[lab]: int(sign + (count or "1")) for sign, count, lab in t} for t in terms]


def _standard_letter_map(alg, perm, signs):
    """The action of e_k -> signs[k]·e_{perm[k]} on the standard letters of
    ``alg``: letter -> (image letter, sign)."""
    p = alg.sig.p
    std = {}
    if alg.translation_indices:
        for k in range(alg.sig.n):
            std[alg.index(Translation(k + 1))] = (alg.index(Translation(perm[k] + 1)), signs[k])
    for lab in so_labels(alg.sig):
        a, b = perm[lab.i - 1], perm[lab.j - 1]
        lo, hi = min(a, b) + 1, max(a, b) + 1
        image = BoostY(lo, hi) if lo <= p < hi else RotationX(lo, hi)
        sign = signs[lab.i - 1] * signs[lab.j - 1] * (1 if a < b else -1)
        std[alg.index(lab)] = (alg.index(image), sign)
    return std


def _through_standard_letters(alg, letters, perm, signs):
    """The action of e_k -> signs[k]·e_{perm[k]} on the split letters, by
    mapping the standard letters and looking up each split letter's image."""
    std = _standard_letter_map(alg, perm, signs)
    letter_perm, letter_signs = [0] * alg.dim, [0] * alg.dim
    for img, (x, sign) in letters.items():
        if sign == 1:
            image = frozenset((std[k][0], std[k][1] * c) for k, c in img)
            letter_perm[x], letter_signs[x] = letters[image]
    return tuple(letter_perm), tuple(letter_signs)


GROUP_ORDERS = {(2, 2): 4, (3, 1): 4, (1, 3): 4, (4, 0): 24, (2, 3): 8, (3, 3): 24}


@pytest.mark.parametrize("pq", list(GROUP_ORDERS), ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_symmetries_fix_every_kept_grade(pq):
    red = split_reduction(build_affine(Signature(*pq)))
    alg = red.algebra
    assert len(red.symmetries) == GROUP_ORDERS[pq]
    assert red.symmetries[0] == (tuple(range(alg.dim)), (1,) * alg.dim)
    assert len({perm for perm, _ in red.symmetries}) == len(red.symmetries)
    words = graded_words(alg.grades)
    for k in range(1, 4):
        for g in words.grades_of_length(k):
            if not red.keeps(g):
                continue
            block = GradeBlock(words, k, g)
            for w in map(block.unrank_word, range(block.dim)):
                for perm, _ in red.symmetries:
                    assert words.grade_of(tuple(perm[a] for a in w)) == g, (w, perm)


@pytest.mark.parametrize("build", [build_affine, build_so], ids=lambda b: b.__name__[6:])
@pytest.mark.parametrize("pq, order", [((4, 1), 12), ((1, 4), 12), ((5, 0), 120), ((6, 0), 720)],
                         ids=["4_1", "1_4", "5_0", "6_0"])
def test_group_orders_at_n5_and_n6(build, pq, order):
    assert len(split_reduction(build(Signature(*pq))).symmetries) == order


@pytest.mark.parametrize("build", [build_affine, build_so], ids=lambda b: b.__name__[6:])
@pytest.mark.parametrize("pq", list(GROUP_ORDERS), ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_letter_action_matches_standard_route(build, pq):
    # the letter action induced from the split vectors equals the one got
    # by mapping the standard letters, for every element of the group
    alg = build(Signature(*pq))
    form = split_form(alg)
    letters = _signed_lookup(_standard_images(form, alg))
    actions = set()
    for perm, signs, sym in _candidates(form, split._split_table(alg.sig)):
        assert sym == _through_standard_letters(alg, letters, perm, signs), (perm, signs)
        actions.add(sym)
    symmetries = split_reduction(alg).symmetries
    assert set(symmetries) <= actions
    assert {perm for perm, _ in symmetries} == {perm for perm, _ in actions}


@pytest.mark.parametrize("build", [build_affine, build_so], ids=lambda b: b.__name__[6:])
@pytest.mark.parametrize("pq", list(GROUP_ORDERS), ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_standard_letter_action_matches_oracle(build, pq):
    # every signed permutation in SO(p)×SO(q), not only those that keep the
    # split basis, acts on the standard letters as the oracle maps them
    alg = build(Signature(*pq))
    count = 0
    for perm, signings in signed_rotations(alg.sig):
        for signs in signings:
            std = _standard_letter_map(alg, perm, signs)
            sym = letter_action(alg, list(zip(perm, signs)))
            assert sym == tuple(zip(*(std[x] for x in range(alg.dim))))
            check_automorphism(alg, sym)
            count += 1
    n = alg.sig.n
    assert count == math.factorial(pq[0]) * math.factorial(pq[1]) * 2 ** (n - 1 - (pq[1] > 0))


def _per_pair_check(alg, sym):
    """The automorphism check pair by pair, as it was before the structure
    triples: the oracle of ``check_automorphism``."""
    perm, signs = sym
    if sorted(perm) != list(range(alg.dim)):
        raise ValueError(f"the symmetry {sym} of {alg.name} is no permutation of the letters")
    for (x, y), vec in alg.structure.items():
        s = signs[x] * signs[y]
        image = {perm[c]: signs[c] * v for c, v in vec.items()}
        if image != {c: s * v for c, v in alg.bracket(perm[x], perm[y]).items()}:
            raise ValueError(f"the symmetry {sym} of {alg.name} is no automorphism: "
                             f"[{alg.labels[x]}, {alg.labels[y]}]")


def _outcome(check, alg, sym):
    try:
        check(alg, sym)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("pq", list(GROUP_ORDERS), ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_automorphism_set_check_matches_per_pair_check(pq):
    # every candidate action on the split letters, one with a letter sign
    # flipped and one with two letters swapped: the set comparison accepts
    # and rejects as the pair-by-pair check does, naming the same pair
    form = split_form(build_affine(Signature(*pq)))
    triples = liealg.structure_triples(form)
    actions = [sym for _, _, sym in _candidates(form, split._split_table(form.sig))]
    perm, signs = actions[-1]
    flipped = (perm, (-signs[0],) + signs[1:])
    swapped = ((perm[1], perm[0]) + perm[2:], signs)
    for sym in actions + [flipped, swapped]:
        want = _outcome(_per_pair_check, form, sym)
        assert _outcome(check_automorphism, form, sym) == want, sym
        assert _outcome(lambda a, s: check_automorphism(a, s, triples), form, sym) == want, sym
    assert all(_outcome(check_automorphism, form, sym) is None for sym in actions)
    for sym in (flipped, swapped):
        assert "is no automorphism" in _outcome(check_automorphism, form, sym)


def _enumerated_group(alg, table, target):
    """The group builder's former route, kept as its oracle: every sign
    vector of every signed rotation, one letter action each until its index
    map has a kept action, the grades acted on through the full weight
    matrix and the bit map, the chains checked term by term."""
    r = len(table.weights[0])
    kept, group = set(), {}
    for coords, signings in signed_rotations(alg.sig):
        for signing in signings:
            moved = _moved(table, coords, signing)
            if None in moved:
                break
            index = tuple(k for k, _ in moved)
            if index in kept:
                continue
            perm, signs = letter_action(alg, moved)
            if perm in group:
                kept.add(index)
                continue
            bit_of = {table.bits[k]: table.bits[k2] for k, k2 in enumerate(index)}
            axes = [table.weights[index[i]] for i in range(r)]

            def act(g):
                weight = (sum(g[1 + i] * axes[i][j] for i in range(r)) for j in range(r))
                return (g[0], *weight, sum(b2 for b, b2 in bit_of.items() if g[-1] & b))

            def fixes(chain):
                return all(
                    chain.get(tuple(perm[a] for a in w)) == c * math.prod(signs[a] for a in w)
                    for w, c in chain.items()
                )

            if all(act(g) == g and fixes(chain) for g, chain in target.items()):
                group[perm] = signs
                kept.add(index)
    return sorted(group.items())


ALL_SIGNATURES = [(p, n - p) for n in range(2, 7) for p in range(n, 0, -1)]


@pytest.mark.parametrize("build", [build_affine, build_so], ids=lambda b: b.__name__[6:])
@pytest.mark.parametrize("pq", ALL_SIGNATURES, ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_orbit_group_matches_enumeration(build, pq):
    # by index map, with each sign vector a flip of the first action, the
    # builder gives the group of the former route, element for element
    alg = build(Signature(*pq))
    red = split_reduction(alg)
    target = {(0, *(0,) * min(pq), m): {} for m in red.kept}
    assert list(red.symmetries) == _enumerated_group(red.algebra, split._split_table(alg.sig), target)


def _fixed_chain(alg, sym, words):
    """Σ_k g^k(w) over k < 24, a multiple of the order of every signed
    permutation of four coordinates, for g = ``sym`` and each word w: a
    chain fixed by g, by grade."""
    perm, signs = sym
    chain = {}
    for word in words:
        w, s = word, 1
        for _ in range(24):
            chain[w] = chain.get(w, 0) + s
            s *= math.prod(signs[a] for a in w)
            w = tuple(perm[a] for a in w)
    by_grade = {}
    for w, c in chain.items():
        if c:
            by_grade.setdefault(graded_words(alg.grades).grade_of(w), {})[w] = c
    return by_grade


@pytest.mark.parametrize("pq", [(2, 2), (3, 1), (1, 3)], ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_chain_stabiliser_matches_enumeration(pq):
    # for every signed rotation g, a chain fixed by g in a few grades: the
    # builder reads each flip's sign off the first action of an index map
    # and picks the sign vector the former route found by trying each; g's
    # letter permutation is kept when g fixes each grade, and some elements
    # need a sign vector other than their index map's first
    alg = build_affine(Signature(*pq))
    table = rotations._standard_table(alg.sig.n)
    words = graded_words(alg.grades)
    firsts = dict(letter_action(alg, list(zip(coords, signings[0]))) for coords, signings in signed_rotations(alg.sig))
    flipped = 0
    for coords, signings in signed_rotations(alg.sig):
        for signing in signings:
            perm, signs = letter_action(alg, list(zip(coords, signing)))
            by_grade = _fixed_chain(alg, (perm, signs), [(0, 0, 4), (0, 4, 9)])
            group = rotations.symmetry_group(alg, table, by_grade)
            assert group == _enumerated_group(alg, table, by_grade), (coords, signing)
            moves = any(words.grade_of(tuple(perm[a] for a in w)) != g for g, c in by_grade.items() for w in c)
            assert (perm in dict(group)) != moves
            flipped += sum(firsts[q] != s for q, s in group)
    assert flipped
