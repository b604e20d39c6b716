"""The split form of the affine algebras: closed-form construction and its check."""

import math
import re

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
from leibniz_homology.liealg import check_automorphism, letter_action, signed_rotations, so_labels
from leibniz_homology.repspace import GradeBlock, graded_words
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
    # the construction checks itself against the standard table; here the
    # split table is a Lie algebra with integer constants and torus weights
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
    for build in (build_affine, build_so):
        with pytest.raises(ValueError, match="split form of .* is wrong"):
            split_form(_corrupted(build(Signature(*pq))))
    # only the canonical algebras have a split form
    h = build_affine(Signature(*pq))
    for alg in (build_abelian(3), LieAlgebra(h.labels[1:], {}, sig=h.sig), split_form(h)):
        with pytest.raises(ValueError, match="canonical basis"):
            split_form(alg)


@pytest.mark.parametrize(
    "regrade, message",
    [
        # the translation count in place of the first torus weight
        (lambda g: (g[0], g[0]) + g[2:], "does not act on .* by twice its weight 1"),
        # every parity 0
        (lambda g: g[:-1] + (0,), "of another count or parity"),
    ],
    ids=["weight", "parity"],
)
def test_split_form_rejects_gradings_of_other_origin(monkeypatch, regrade, message):
    # both are valid gradings, but the first is not the eigenvalues of a
    # torus element and the second not the characters of the flips
    real = split.LieAlgebra

    def regraded(labels, structure, *, grades, **kwargs):
        return real(labels, structure, grades=[regrade(g) for g in grades], **kwargs)

    monkeypatch.setattr(split, "LieAlgebra", regraded)
    with pytest.raises(ValueError, match=message):
        split_form(build_affine(Signature(2, 2)))


def test_split_form_check_survives_optimisation(run_python):
    # the isomorphism and group checks raise, so python -O does not strip them
    code = (
        "import sys\n"
        "import pytest\n"
        "from leibniz_homology import Signature, build_affine\n"
        "from leibniz_homology.split import _split_reduction, split_form\n"
        "from test_complexes import _flip_first_letter\n"
        "from test_split import _corrupted\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "try:\n"
        "    split_form(_corrupted(build_affine(Signature(2, 2))))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('a corrupted constant passed')\n"
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
    assert "is wrong" in proc.stdout and "is no automorphism" in proc.stdout


def _group_of(monkeypatch, rotations_of_sig, table=None):
    """The orbit group of the split h(2,2) built from the signed rotations
    ``rotations_of_sig`` lists, on the split table or ``table``."""
    form = split_reduction(build_affine(Signature(2, 2))).algebra
    monkeypatch.setattr(rotations, "signed_rotations", lambda sig: iter(rotations_of_sig))
    return rotations.symmetry_group(form, table or split._split_table(form.sig), {})


def test_symmetry_with_det_minus_one_is_rejected(monkeypatch):
    # O(p)×O(q) elements outside SO(p)×SO(q) can act by -1 on homology
    # e1 -> -e1: a reflection of the p-block
    with pytest.raises(ValueError, match=r"det -1 on the block \[0, 1\]"):
        _group_of(monkeypatch, [((0, 1, 2, 3), [(-1, 1, 1, 1)])])
    # e1 <-> e2 and e3 <-> e4: det -1 on both blocks
    with pytest.raises(ValueError, match="det -1"):
        _group_of(monkeypatch, [((1, 0, 3, 2), [(1, 1, 1, 1)])])
    # the same swaps with one sign in each block are rotations, kept up to
    # the flip -I
    ((perm, _),) = _group_of(monkeypatch, [((1, 0, 3, 2), [(-1, 1, -1, 1)])])
    assert perm in {perm for perm, _ in split_reduction(build_affine(Signature(2, 2))).symmetries}


def test_map_that_mixes_the_blocks_is_rejected(monkeypatch):
    # e1 <-> e3 maps the split vectors' supports to supports, but mixes
    # the blocks
    with pytest.raises(ValueError, match=r"does not keep the block \[0, 1\]"):
        _group_of(monkeypatch, [((2, 1, 0, 3), [(1, 1, 1, 1)])])


def test_map_that_leaves_the_basis_is_rejected(monkeypatch):
    # with only +b_k to look up, e1 -> -e1, e2 -> -e2 maps b_0 = e1 + e3
    # to -b_2, which is missing
    table = split._split_table(Signature(2, 2))
    positive = rotations.BasisTable(table.vecs, table.weights, table.bits)
    positive.find = {key: kb for key, kb in table.find.items() if kb[1] == 1}
    with pytest.raises(ValueError, match="no basis vector up to sign"):
        _group_of(monkeypatch, [((0, 1, 2, 3), [(1, 1, 1, 1), (-1, -1, 1, 1)])], positive)


def test_symmetry_that_breaks_a_bracket_is_rejected(monkeypatch):
    # the rotation e1 <-> e2, e3 <-> e4 (one sign in each block) with the
    # sign of the translation d(b_0) flipped in its letter action
    def broken(alg, moved):
        letters, letter_signs = liealg.letter_action(alg, moved)
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
        letters, letter_signs = liealg.letter_action(alg, moved)
        return (letters[1], letters[0]) + letters[2:], letter_signs

    monkeypatch.setattr(rotations, "letter_action", swap_first_letters)
    with pytest.raises(ValueError, match=r"moves the grade of d\(1\)\+d\(3\)"):
        _group_of(monkeypatch, [((0, 1, 2, 3), [(1, 1, 1, 1)])])


def test_symmetry_group_rejects_an_unlisted_flip(monkeypatch):
    # -I is the flip of both parity bits at (2,2); negating one more letter
    # of its action makes it differ from the identity by more than a flip
    def wrong(alg, moved):
        letters, letter_signs = liealg.letter_action(alg, moved)
        if all(s == -1 for _, s in moved):
            letter_signs = (-letter_signs[0],) + letter_signs[1:]
        return letters, letter_signs

    signings = [(1, 1, 1, 1), (-1, -1, -1, -1)]
    assert len(_group_of(monkeypatch, [((0, 1, 2, 3), signings)])) == 1
    monkeypatch.setattr(rotations, "letter_action", wrong)
    with pytest.raises(ValueError, match="differ by more than a sign flip"):
        _group_of(monkeypatch, [((0, 1, 2, 3), signings)])


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
@pytest.mark.parametrize("pq", list(GROUP_ORDERS), ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_letter_action_matches_standard_route(build, pq):
    # the letter action induced from the split vectors equals the one got
    # by mapping the standard letters, for every element of the group
    alg = build(Signature(*pq))
    form = split_form(alg)
    letters = _signed_lookup(_standard_images(form, alg))
    actions = set()
    for perm, signs, _, sym in rotations._candidates(form, split._split_table(alg.sig)):
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
    actions = [sym for _, _, _, sym in rotations._candidates(form, split._split_table(form.sig))]
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
