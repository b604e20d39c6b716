"""The split form of the affine algebras: closed-form construction and its check."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from leibniz_homology import (
    BoostY,
    LieAlgebra,
    RotationX,
    Signature,
    build_abelian,
    build_affine,
    build_so,
    validate,
)
from leibniz_homology import split
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
    # the isomorphism check raises, so python -O does not strip it
    src = Path(__file__).resolve().parent.parent / "src"
    here = Path(__file__).resolve().parent
    code = (
        "import sys\n"
        "from leibniz_homology import Signature, build_affine\n"
        "from leibniz_homology.split import split_form\n"
        "from test_split import _corrupted\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "try:\n"
        "    split_form(_corrupted(build_affine(Signature(2, 2))))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    sys.exit('a corrupted constant passed')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), str(here), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "is wrong" in proc.stdout


def test_symmetry_with_det_minus_one_is_rejected():
    # O(p)×O(q) elements outside SO(p)×SO(q) can act by -1 on homology
    h = build_affine(Signature(2, 2))
    letters = split._signed_lookup(split._split_basis(h)[1])
    # e1 -> -e1: a reflection of the p-block
    with pytest.raises(ValueError, match=r"det -1 on the block \[0, 1\]"):
        split._symmetry(h, letters, (0, 1, 2, 3), (-1, 1, 1, 1))
    # e1 <-> e2 and e3 <-> e4: det -1 on both blocks
    with pytest.raises(ValueError, match="det -1"):
        split._symmetry(h, letters, (1, 0, 3, 2), (1, 1, 1, 1))
    # the same swaps with one sign in each block are rotations, kept up to
    # the flip -I
    (perm, _), _ = split._symmetry(h, letters, (1, 0, 3, 2), (-1, 1, -1, 1))
    assert perm in {perm for perm, _ in split_reduction(h).symmetries}
    # a map that leaves the split basis: e1 -> e2 but e3 -> e3
    with pytest.raises(ValueError, match="no split vector"):
        split._symmetry(h, letters, (1, 0, 2, 3), (-1, 1, 1, 1))


def test_symmetry_that_breaks_a_bracket_is_rejected():
    h = build_affine(Signature(2, 2))
    red = split_reduction(h)
    letters = split._signed_lookup(split._split_basis(h)[1])
    (perm, signs), moved = split._symmetry(h, letters, (1, 0, 3, 2), (-1, 1, -1, 1))
    split._check_symmetry(red.algebra, red.kept, (perm, signs), moved)
    wrong = (perm, (-signs[0],) + signs[1:])  # one translation's sign flipped
    with pytest.raises(ValueError, match="is no automorphism"):
        split._check_symmetry(red.algebra, red.kept, wrong, moved)


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
