"""Invariant subspace dimensions and the named invariant elements."""

import functools
import math
import operator
from fractions import Fraction

import pytest

from leibniz_homology import (
    RotationX,
    Signature,
    Translation,
    annihilated_by,
    build_affine,
    build_so,
    invariant_subspace,
    lead_projection,
    make_alpha,
    make_alpha_tilde,
    make_beta,
    make_delta,
    make_gamma,
    make_gamma_bar,
    make_gamma_bar_prime,
    make_gamma_tilde,
    make_rho,
    mixed_space,
    proportional,
    resolve_gamma_tilde_sign,
    tensor_space,
    tensor_to_wedge,
    wedge_space,
)
from leibniz_homology import invariants
from leibniz_homology.linalg import CapExceededError


def test_wedge_invariant_dims():
    # 1-dimensional exactly at k = 0 and k = n
    for p, q in [(1, 3), (2, 2), (3, 1), (1, 4), (2, 3)]:
        sig = Signature(p, q)
        h = build_affine(sig)
        so = build_so(sig)
        dims = [invariant_subspace(so, wedge_space(h, k)).dim for k in range(sig.n + 1)]
        assert dims == [1] + [0] * (sig.n - 1) + [1], (p, q)


def test_vector_wedge_invariant_dims():
    # 1-dimensional exactly at k = 1 and k = n-1
    for p, q in [(1, 3), (2, 2), (3, 1), (1, 4), (2, 3)]:
        sig = Signature(p, q)
        h = build_affine(sig)
        so = build_so(sig)
        dims = [
            invariant_subspace(so, mixed_space(h, k, lead=h.translation_indices)).dim
            for k in range(sig.n + 1)
        ]
        expected = [1 if k in (1, sig.n - 1) else 0 for k in range(sig.n + 1)]
        assert dims == expected, (p, q)


def test_so_wedge_invariant_dims_n5():
    for p, q in [(1, 4), (2, 3), (3, 2), (4, 1)]:
        sig = Signature(p, q)
        h = build_affine(sig)
        so = build_so(sig)
        dims = [
            invariant_subspace(so, mixed_space(h, k, lead=h.so_indices)).dim
            for k in range(6)
        ]
        assert dims == [0, 0, 1, 1, 0, 0], (p, q)


def test_so_wedge_coincident_case_n4():
    # k = 2 = n-2 at n = 4: dimension 2, spanned by rho and gamma
    for p, q in [(2, 2), (3, 1), (1, 3)]:
        sig = Signature(p, q)
        h = build_affine(sig)
        so = build_so(sig)
        basis = invariant_subspace(so, mixed_space(h, 2, lead=h.so_indices))
        assert basis.dim == 2
        rho, gamma = make_rho(sig), make_gamma(sig)
        assert annihilated_by(rho, so) and annihilated_by(gamma, so)
        assert not proportional(rho, gamma)


def test_adjoint_invariants_trivial():
    for p, q in [(2, 2), (2, 3)]:
        sig = Signature(p, q)
        h = build_affine(sig)
        so = build_so(sig)
        adjoint = tensor_space(h, 1, factors=h.so_indices)
        assert invariant_subspace(so, adjoint).dim == 0


def test_delta_formula_and_invariance():
    sig = Signature(2, 2)
    h = build_affine(sig)
    delta = make_delta(sig)
    t = lambda i: h.index(Translation(i))
    assert delta.coeffs == {
        (t(1), t(1)): Fraction(1),
        (t(2), t(2)): Fraction(1),
        (t(3), t(3)): Fraction(-1),
        (t(4), t(4)): Fraction(-1),
    }
    assert annihilated_by(delta, build_so(sig))


def test_rho_formula():
    sig = Signature(2, 2)
    h = build_affine(sig)
    rho = make_rho(sig)
    t = lambda i: h.index(Translation(i))
    assert rho.coeffs[(h.index(RotationX(1, 2)), t(1), t(2))] == 1
    assert rho.coeffs[(h.index(RotationX(3, 4)), t(3), t(4))] == -1
    assert len(rho.coeffs) == 6


def test_named_elements_span_their_kernels():
    sig = Signature(2, 3)
    h = build_affine(sig)
    so = build_so(sig)
    ib = invariant_subspace(so, mixed_space(h, 2, lead=h.so_indices))
    assert ib.dim == 1 and proportional(ib.basis[0], make_rho(sig))
    ib = invariant_subspace(so, mixed_space(h, 3, lead=h.so_indices))
    assert ib.dim == 1 and proportional(ib.basis[0], make_gamma(sig))
    ib = invariant_subspace(so, mixed_space(h, 1, lead=h.translation_indices))
    assert ib.dim == 1 and proportional(ib.basis[0], make_delta(sig))
    ib = invariant_subspace(so, mixed_space(h, 4, lead=h.translation_indices))
    assert ib.dim == 1 and proportional(ib.basis[0], make_beta(sig))
    ib = invariant_subspace(so, wedge_space(h, 5))
    assert ib.dim == 1 and proportional(ib.basis[0], make_alpha(sig))


def test_named_annihilation(sig4):
    h = build_affine(sig4)
    so = build_so(sig4)
    for chain in (make_delta(sig4), make_beta(sig4), make_rho(sig4), make_gamma(sig4)):
        assert annihilated_by(chain, so)
    assert annihilated_by(make_alpha_tilde(sig4), range(h.dim))


def test_alpha_antisymmetrization():
    sig = Signature(2, 2)
    h = build_affine(sig)
    at = make_alpha_tilde(sig)
    assert len(at.coeffs) == math.factorial(4)
    proj = tensor_to_wedge(at, target=wedge_space(h, 4))
    assert proj == Fraction(math.factorial(4)) * make_alpha(sig)


def test_gamma_bar_word_count_and_projection():
    sig = Signature(2, 2)
    h = build_affine(sig)
    gb = make_gamma_bar(sig)
    assert len(gb.coeffs) == 12  # 6 lead elements x 2 permutations
    proj = lead_projection(gb, h.so_indices)
    n = sig.n
    assert Fraction(math.factorial(n), math.factorial(n - 2)) * proj == make_gamma(sig)
    gbp = make_gamma_bar_prime(sig)
    assert len(gbp.coeffs) == 12
    # the primed lift has the so-factor last
    assert all(w[-1] in set(h.so_indices) for w in gbp.coeffs)
    assert all(w[0] in set(h.so_indices) for w in gb.coeffs)


def test_gamma_bar_prefactor():
    sig = Signature(2, 2)
    gb = make_gamma_bar(sig)
    assert all(abs(c) == Fraction(1, 24) for c in gb.coeffs.values())


def test_gamma_tilde_sign_resolution():
    resolved = {}
    for p, q in [(2, 2), (3, 1)]:
        sign, detail = resolve_gamma_tilde_sign(Signature(p, q))
        assert sign is not None and detail[sign] and not detail[-sign]
        resolved[(p, q)] = sign
    # the same sign survives at both n = 4 signatures
    assert resolved[(2, 2)] == resolved[(3, 1)]


def test_gamma_tilde_invariance(sig4):
    h = build_affine(sig4)
    sign, _ = resolve_gamma_tilde_sign(sig4)
    gt = make_gamma_tilde(sig4, sign)
    assert annihilated_by(gt, range(h.dim))
    assert not annihilated_by(make_gamma_tilde(sig4, -sign), range(h.dim))


def test_gamma_tilde_sign_validation():
    with pytest.raises(ValueError):
        make_gamma_tilde(Signature(2, 2), 0)


def test_invariant_basis_normalization():
    sig = Signature(2, 2)
    h = build_affine(sig)
    ib = invariant_subspace(build_so(sig), wedge_space(h, 4))
    assert ib.dim == 1
    assert ib.basis[0] == make_alpha(sig)  # volume element with coefficient 1


def test_scaled_action_has_same_kernel():
    # the stacked-map kernel dimension is unchanged when any generator's
    # action matrix is replaced by a nonzero scalar multiple
    from leibniz_homology import assemble_action, kernel_basis

    sig = Signature(2, 2)
    h = build_affine(sig)
    so = build_so(sig)
    space = mixed_space(h, 1, lead=h.translation_indices)
    gens = [h.index(lab) for lab in so.labels]

    def stacked(scale_first):
        columns = [[] for _ in range(space.dim)]
        for t, x in enumerate(gens):
            s = 7 if (scale_first and t == 0) else 1
            for col, action in zip(columns, assemble_action(space, x)):
                col.extend((t * space.dim + i, s * v) for i, v in action)
        return len(gens) * space.dim, columns

    plain = kernel_basis(*stacked(False))
    scaled = kernel_basis(*stacked(True))
    assert len(plain) == len(scaled) == 1
    assert len(plain) == invariant_subspace(so, space).dim


def test_row_cap(monkeypatch):
    sig = Signature(2, 2)
    h = build_affine(sig)
    monkeypatch.setattr(invariants, "ROW_CAP", 10)
    with pytest.raises(CapExceededError, match="cap 10"):
        invariant_subspace(build_so(sig), wedge_space(h, 2))


def _module_descriptors(n):
    return (
        [f"wedge:I:{k}" for k in range(n + 1)]
        + [f"tensor:h:{k}" for k in range(4)]
        + [f"{kind}:{k}" for kind in ("I*wedge", "so*wedge") for k in range(n + 1)]
        + ["so"]
    )


def _route_mismatches(sig, full_route, descriptors):
    """Descriptors whose invariant basis on h differs, chain for chain, from
    the one on its ``sig=None`` copy, which solves over every word."""
    from leibniz_homology.cli import _parse_module
    from leibniz_homology.repspace import Space

    so = build_so(sig)
    bad = []
    for desc in descriptors:
        space = _parse_module(desc, sig)[0]
        copy = Space(full_route(space.algebra), space.kind, space.degree, space.factors, space.lead)
        got = invariant_subspace(so, space).basis
        want = invariant_subspace(so, copy).basis
        if [c.coeffs for c in got] != [c.coeffs for c in want]:
            bad.append(desc)
    return bad


@pytest.mark.parametrize(
    "pq", [(2, 1), (3, 0), (2, 2), (3, 1), (1, 3), (4, 0), (2, 3), (3, 2), (3, 3)], ids=str
)
def test_kept_words_basis_matches_full_route(pq, full_route):
    sig = Signature(*pq)
    assert _route_mismatches(sig, full_route, _module_descriptors(sig.n)) == []


def _table_columns(monkeypatch, sig, alg):
    """Columns handed to kernel_basis over the wedge, I⊗Λ^k and so⊗Λ^k tables."""
    from leibniz_homology import invariants

    cols = []
    solve = invariants.kernel_basis
    monkeypatch.setattr(
        invariants, "kernel_basis", lambda rows, columns: cols.append(len(columns)) or solve(rows, columns)
    )
    so = build_so(sig)
    for k in range(sig.n + 1):
        invariant_subspace(so, wedge_space(alg, k))
        invariant_subspace(so, mixed_space(alg, k, lead=alg.translation_indices))
        invariant_subspace(so, mixed_space(alg, k, lead=alg.so_indices))
    monkeypatch.undo()
    return sum(cols)


@pytest.mark.parametrize(
    "pq, full, kept", [((2, 2), 176, 44), ((3, 1), 176, 44), ((4, 0), 176, 22), ((2, 3), 512, 64)]
)
def test_kept_words_column_counts(monkeypatch, full_route, pq, full, kept):
    sig = Signature(*pq)
    h = build_affine(sig)
    assert _table_columns(monkeypatch, sig, full_route(h)) == full
    assert _table_columns(monkeypatch, sig, h) == kept


def test_cross_check_catches_a_wrong_kept_rule(monkeypatch, full_route):
    # seeded mutation: keep only the parity-0 words of a canonical algebra;
    # alpha has parity 1111 and drops out of Λ^4
    from leibniz_homology import invariants

    sig = Signature(2, 2)
    assert _route_mismatches(sig, full_route, ["wedge:I:4"]) == []
    rule = invariants._kept_words

    def parity_zero_only(space, gens):
        words = rule(space, gens)
        if not invariants.is_canonical(space.algebra):
            return words
        parity = [g[1] for g in space.algebra.grades]
        return [w for w in words if functools.reduce(operator.xor, (parity[a] for a in w), 0) == 0]

    monkeypatch.setattr(invariants, "_kept_words", parity_zero_only)
    assert invariant_subspace(build_so(sig), wedge_space(build_affine(sig), 4)).dim == 0
    assert _route_mismatches(sig, full_route, ["wedge:I:4"]) == ["wedge:I:4"]


def test_acting_indices_checked():
    h = build_affine(Signature(2, 2))
    space = wedge_space(h, 2)
    assert invariant_subspace([9], space).dim == 2
    for bad in ([99], [10], [-1], [1.7], ["1"]):
        with pytest.raises(ValueError):
            invariant_subspace(bad, space)
    with pytest.raises(ValueError):
        annihilated_by(make_alpha(Signature(2, 2)), [h.dim])
    # an acting algebra with a label h lacks: so(3,1) has X(1,3)
    so31 = build_so(Signature(3, 1))
    message = r"acting label X\(1,3\) of so\(3,1\) is not in h\(2,2\)"
    with pytest.raises(ValueError, match=message):
        invariant_subspace(so31, space)
    with pytest.raises(ValueError, match=message):
        annihilated_by(make_alpha(Signature(2, 2)), so31)
