"""Construction, validation and oracle agreement of the algebras."""

from decimal import Decimal
from fractions import Fraction

import pytest

from leibniz_homology import (
    BoostY,
    LieAlgebra,
    ModuleLawError,
    RotationX,
    Signature,
    Translation,
    build_abelian,
    build_abelian_extension,
    build_affine,
    build_so,
    standard_translation_action,
    validate,
)
from leibniz_homology.liealg import check_automorphism
from leibniz_homology.rotations import letter_action

from vfield_oracle import oracle_bracket


def bracket_named(alg, la, lb):
    vec = alg.bracket(alg.index(la), alg.index(lb))
    return {str(alg.labels[c]): v for c, v in vec.items()}


def test_signature_invariants():
    s = Signature(2, 2)
    assert s.n == 4
    with pytest.raises(ValueError):
        Signature(0, 2)
    with pytest.raises(ValueError):
        Signature(1, -1)


def test_abelian_construction():
    a = build_abelian(3)
    assert a.dim == 3 and not a.structure
    one = build_abelian(1)
    assert one.dim == 1
    four = build_abelian(4)
    assert four.bracket(0, 1) == {}
    with pytest.raises(ValueError):
        build_abelian(0)


def test_label_counts():
    for p, q in [(2, 2), (3, 1), (2, 3), (4, 2)]:
        sig = Signature(p, q)
        so = build_so(sig)
        n = sig.n
        assert so.dim == n * (n - 1) // 2
        rot = [lab for lab in so.labels if isinstance(lab, RotationX)]
        boo = [lab for lab in so.labels if isinstance(lab, BoostY)]
        assert len(rot) == p * (p - 1) // 2 + q * (q - 1) // 2
        assert len(boo) == p * q
        h = build_affine(sig)
        assert h.dim == n * (n + 1) // 2
        assert [lab for lab in h.labels[:n]] == [Translation(i) for i in range(1, n + 1)]


def test_bracket_examples():
    so31 = build_so(Signature(3, 1))
    assert bracket_named(so31, RotationX(1, 2), RotationX(1, 3)) == {"X(2,3)": 1}
    assert bracket_named(so31, RotationX(1, 2), BoostY(1, 4)) == {"Y(2,4)": 1}
    so22 = build_so(Signature(2, 2))
    assert bracket_named(so22, BoostY(1, 3), BoostY(2, 3)) == {"X(1,2)": -1}
    h31 = build_affine(Signature(3, 1))
    assert bracket_named(h31, Translation(1), RotationX(1, 2)) == {"d(2)": -1}
    h22 = build_affine(Signature(2, 2))
    assert bracket_named(h22, Translation(1), Translation(2)) == {}
    assert bracket_named(h22, Translation(1), BoostY(1, 3)) == {"d(3)": 1}


def test_validate_passes_small_signatures():
    for p, q in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 0), (2, 3)]:
        sig = Signature(p, q)
        assert validate(build_so(sig)).ok
        assert validate(build_affine(sig)).ok


def test_definite_case_matches_rotation_algebra():
    so3 = build_so(Signature(3, 0))
    assert so3.dim == 3
    assert all(isinstance(lab, RotationX) for lab in so3.labels)
    # standard so(3) relations in this basis
    assert bracket_named(so3, RotationX(1, 2), RotationX(1, 3)) == {"X(2,3)": 1}
    assert bracket_named(so3, RotationX(1, 2), RotationX(2, 3)) == {"X(1,3)": -1}


def test_corrupted_table_fails_jacobi_with_named_triple():
    h = build_affine(Signature(2, 2)).copy()
    pair = (0, h.index(RotationX(1, 2)))
    h.structure.setdefault(pair, {})[1] = 5
    rep = validate(h)
    assert not rep.jacobi_ok
    assert rep.jacobi_failures  # names at least one failing triple
    assert rep.oracle_ok is False


def test_oracle_agreement_entry_for_entry():
    for p, q in [(2, 2), (3, 1), (1, 3), (2, 1)]:
        sig = Signature(p, q)
        h = build_affine(sig)
        for a in range(h.dim):
            for b in range(h.dim):
                if a == b:
                    continue
                got = {str(h.labels[c]): Fraction(v) for c, v in h.bracket(a, b).items()}
                want = oracle_bracket(str(h.labels[a]), str(h.labels[b]), p, sig.n)
                assert got == want, (h.labels[a], h.labels[b])


def test_structure_constants_are_integers():
    for p, q in [(2, 2), (2, 3)]:
        h = build_affine(Signature(p, q))
        for vec in h.structure.values():
            for v in vec.values():
                assert v == int(v)


def test_extension_reproduces_affine():
    sig = Signature(2, 2)
    so = build_so(sig)
    ext = build_abelian_extension(so, standard_translation_action(sig), m_dim=4)
    h = build_affine(sig)
    assert ext.dim == h.dim
    assert ext.structure == h.structure
    assert validate(ext).antisymmetry_ok and validate(ext).jacobi_ok


def test_extension_with_zero_action_is_direct_sum():
    so = build_so(Signature(2, 1))
    ext = build_abelian_extension(so, [{} for _ in range(so.dim)], m_dim=2)
    assert ext.dim == so.dim + 2
    for i in range(2):
        for a in range(2, ext.dim):
            assert ext.bracket(i, a) == {}
    # a zero action does not show M's dimension, so it must be given
    with pytest.raises(TypeError):
        build_abelian_extension(so, [{} for _ in range(so.dim)])


def test_automorphism_check_rejects_a_non_permutation():
    h = build_affine(Signature(2, 2))
    check_automorphism(h, (tuple(range(h.dim)), (1,) * h.dim))
    with pytest.raises(ValueError, match="is no permutation of the letters"):
        check_automorphism(h, ((0,) + tuple(range(h.dim - 1)), (1,) * h.dim))


def test_automorphism_check_reads_the_copy_it_is_given():
    # the demo's fault injection: a constant of a copy changed after the
    # original passed; the check must read the copy's structure, not a
    # table kept from an earlier call
    h = build_affine(Signature(2, 2))
    sym = letter_action(h, list(zip((1, 0, 3, 2), (-1, 1, -1, 1))))  # e1 <-> e2, e3 <-> e4
    check_automorphism(h, sym)
    bad = h.copy()
    check_automorphism(bad, sym)
    bad.structure[(0, h.index(RotationX(1, 2)))][1] = 5
    with pytest.raises(ValueError, match=r"is no automorphism: \[d\(1\), X\(1,2\)\]"):
        check_automorphism(bad, sym)
    check_automorphism(h, sym)


def test_extension_module_law_violation_names_pair():
    so = build_so(Signature(2, 1))
    bad = [dict() for _ in range(so.dim)]
    bad[0] = {(0, 1): 1}  # arbitrary non-equivariant map
    with pytest.raises(ModuleLawError) as exc:
        build_abelian_extension(so, bad, m_dim=2)
    assert exc.value.pair[0] in so.labels and exc.value.pair[1] in so.labels


@pytest.mark.parametrize(
    "action",
    [
        pytest.param([[[1 / 3 + 1e-9]]], id="rows"),
        pytest.param([{(0, 0): 0.5}], id="dict"),
        pytest.param([[[Decimal("0.5")]]], id="decimal"),
    ],
)
def test_extension_rejects_inexact_entries(action):
    # no rounding: 1/3 + 1e-9 used to become exactly 1/3
    with pytest.raises(ValueError, match=r"entry \(0,0\) is .*not an int or a Fraction"):
        build_abelian_extension(build_abelian(1), action, m_dim=1)
    exact = build_abelian_extension(build_abelian(1), [[[Fraction(1, 3)]]], m_dim=1)
    assert exact.bracket(1, 0) == {0: Fraction(1, 3)}


def test_grading_is_bracket_additive():
    for h in (build_affine(Signature(2, 2)), build_affine(Signature(3, 1)), build_so(Signature(2, 3))):
        g = h.grades
        for (a, b), vec in h.structure.items():
            for c in vec:
                assert g[c] == (g[a][0] + g[b][0], g[a][1] ^ g[b][1])
    h = build_affine(Signature(2, 2))
    assert h.grades[h.index(Translation(3))] == (1, 0b0100)
    assert h.grades[h.index(RotationX(3, 4))] == (0, 0b1100)
    assert h.grades[h.index(BoostY(1, 4))] == (0, 0b1001)


def test_bad_grading_rejected():
    h = build_affine(Signature(2, 2))
    assert LieAlgebra(h.labels, h.structure).grades == ((0, 0),) * h.dim
    counts_only = [(c, 0) for c, _ in h.grades]
    assert LieAlgebra(h.labels, h.structure, grades=counts_only).grades == tuple(counts_only)
    with_weight = [(c, 0, s) for c, s in h.grades]  # a zero torus weight field
    assert LieAlgebra(h.labels, h.structure, grades=with_weight).grades == tuple(with_weight)
    for grades in (
        h.grades[:-1],  # one grade short
        [(2, 0)] * 4 + [(0, 0)] * 6,  # counts outside {0, 1}
        [(0, 0)] * 4 + [(1, 0)] * 6,  # [so, so] has count-0 terms where 2 is due
        [(c, -1) for c, _ in h.grades],  # negative parity
        # counts right, parity of T_1 moved to bit 2: [X(1,2), T_2] = ±T_1 breaks
        [(1, 0b100)] + list(h.grades[1:]),
        [(c, 0, s) for c, s in h.grades[:-1]] + [h.grades[-1]],  # lengths differ
        [(c, 1, s) for c, s in h.grades],  # weights must add: [X(1,2), T_2] has weight 2
    ):
        with pytest.raises(ValueError):
            LieAlgebra(h.labels, h.structure, grades=grades)
    # two count-1 elements with a nonzero bracket
    with pytest.raises(ValueError):
        LieAlgebra(
            [Translation(1), Translation(2)],
            {(0, 1): {0: 1}, (1, 0): {0: -1}},
            grades=[(1, 0), (1, 0)],
        )
