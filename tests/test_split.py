"""The split form of the affine algebras: closed-form construction and its check."""

import os
import re
import subprocess
import sys
from pathlib import Path

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
    validate,
)
from leibniz_homology import split
from leibniz_homology.liealg import so_labels
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


def test_split_form_check_survives_optimisation():
    # the isomorphism and group checks raise, so python -O does not strip them
    src = Path(__file__).resolve().parent.parent / "src"
    here = Path(__file__).resolve().parent
    code = (
        "import sys\n"
        "from leibniz_homology import Signature, build_affine\n"
        "from leibniz_homology.split import _check_symmetry, split_form\n"
        "from test_split import _broken_symmetry, _corrupted\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "try:\n"
        "    split_form(_corrupted(build_affine(Signature(2, 2))))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('a corrupted constant passed')\n"
        "try:\n"
        "    _check_symmetry(*_broken_symmetry(build_affine(Signature(2, 2))))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('a broken symmetry passed')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), str(here), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "is wrong" in proc.stdout and "is no automorphism" in proc.stdout


def test_symmetry_with_det_minus_one_is_rejected():
    # O(p)×O(q) elements outside SO(p)×SO(q) can act by -1 on homology
    h = build_affine(Signature(2, 2))
    form = split_form(h)
    # e1 -> -e1: a reflection of the p-block
    with pytest.raises(ValueError, match=r"det -1 on the block \[0, 1\]"):
        split._symmetry(form, (0, 1, 2, 3), (-1, 1, 1, 1))
    # e1 <-> e2 and e3 <-> e4: det -1 on both blocks
    with pytest.raises(ValueError, match="det -1"):
        split._symmetry(form, (1, 0, 3, 2), (1, 1, 1, 1))
    # the same swaps with one sign in each block are rotations, kept up to
    # the flip -I
    (perm, _), _ = split._symmetry(form, (1, 0, 3, 2), (-1, 1, -1, 1))
    assert perm in {perm for perm, _ in split_reduction(h).symmetries}
    # a map that leaves the split basis: e1 -> e2 but e3 -> e3
    with pytest.raises(ValueError, match="no split vector"):
        split._symmetry(form, (1, 0, 2, 3), (-1, 1, 1, 1))


def _broken_symmetry(h):
    """The split form of ``h``, its kept parities, a symmetry of the
    rotation e1 <-> e2, e3 <-> e4 (one sign in each block) with one
    translation's sign flipped, and the rotation's split-vector map."""
    red = split_reduction(h)
    (perm, signs), moved = split._symmetry(red.algebra, (1, 0, 3, 2), (-1, 1, -1, 1))
    split._check_symmetry(red.algebra, red.kept, (perm, signs), moved)
    return red.algebra, red.kept, (perm, (-signs[0],) + signs[1:]), moved


def test_symmetry_that_breaks_a_bracket_is_rejected():
    with pytest.raises(ValueError, match="is no automorphism"):
        split._check_symmetry(*_broken_symmetry(build_affine(Signature(2, 2))))


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


def _through_standard_letters(alg, letters, perm, signs):
    """The action of e_k -> signs[k]·e_{perm[k]} on the split letters, by
    mapping the standard letters and looking up each split letter's image."""
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
    for perm, signs in split._rotations(alg.sig):
        sym, _ = split._symmetry(form, perm, signs)
        assert sym == _through_standard_letters(alg, letters, perm, signs), (perm, signs)
        actions.add(sym)
    symmetries = split_reduction(alg).symmetries
    assert set(symmetries) <= actions
    assert {perm for perm, _ in symmetries} == {perm for perm, _ in actions}
