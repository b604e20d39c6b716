"""Invariant subspace dimensions and the named invariant elements."""

import functools
import itertools
import math
import operator
from fractions import Fraction

import pytest

from leibniz_homology import (
    RotationX,
    Signature,
    Translation,
    act,
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
    module_space,
    proportional,
    random_chain,
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


def _s_n_sum(sig):
    """The alternating sum over S_n of d_{s(1)} ⊗ ... ⊗ d_{s(n)}, s in
    ``itertools.permutations`` order, the sign -1 to the inversions of s:
    the oracle for ``make_alpha_tilde``."""
    h = build_affine(sig)
    base = [h.index(Translation(i)) for i in range(1, sig.n + 1)]
    coeffs = {}
    for perm in itertools.permutations(range(sig.n)):
        inversions = sum(x > y for x, y in itertools.combinations(perm, 2))
        coeffs[tuple(base[t] for t in perm)] = Fraction((-1) ** inversions)
    return tensor_space(h, sig.n), coeffs


def test_alpha_tilde_is_the_s_n_sum():
    # (n-1)! times the lift of beta: the same words, in the same order,
    # with the same Fraction coefficients as the sum over S_n
    for n in range(2, 8):
        for p in range(1, n + 1):
            sig = Signature(p, n - p)
            space, coeffs = _s_n_sum(sig)
            at = make_alpha_tilde(sig)
            assert at.space == space
            assert list(at.coeffs.items()) == list(coeffs.items()), sig
            assert all(type(c) is Fraction for c in at.coeffs.values())


@pytest.mark.parametrize("pq", [(2, 2), (3, 3)])
def test_module_space_names_the_tabulated_modules(pq):
    h = build_affine(Signature(*pq))
    for k in range(4):
        assert module_space(h, "wedge", k) == wedge_space(h, k)
        assert module_space(h, "I*wedge", k) == mixed_space(h, k, lead=h.translation_indices)
        assert module_space(h, "so*wedge", k) == mixed_space(h, k, lead=h.so_indices)
    assert module_space(h, "so") == tensor_space(h, 1, factors=h.so_indices)
    assert module_space(h, "wedge") == wedge_space(h, 0)
    with pytest.raises(KeyError):
        module_space(h, "tensor", 1)


@pytest.mark.parametrize(
    "pq", [(p, n - p) for n in range(3, 7) for p in range(1, n + 1)], ids=lambda pq: f"{pq[0]}_{pq[1]}"
)
def test_gamma_bar_word_count_and_projection(pq):
    sig = Signature(*pq)
    h = build_affine(sig)
    n = sig.n
    words = len(h.so_indices) * math.factorial(n - 2)  # each lead element x (n-2)! tails
    gb = make_gamma_bar(sig)
    assert len(gb.coeffs) == words
    proj = lead_projection(gb, h.so_indices)
    assert Fraction(math.factorial(n), math.factorial(n - 2)) * proj == make_gamma(sig)
    gbp = make_gamma_bar_prime(sig)
    assert len(gbp.coeffs) == words
    # the primed lift has the so-factor last
    so = set(h.so_indices)
    assert all(w[0] in so for w in gb.coeffs) and all(w[-1] in so for w in gbp.coeffs)


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


# resolve_gamma_tilde_sign at n = 4, 5 and 6, pinned from the Fraction route
GAMMA_TILDE_SIGNS = {
    (2, 2): (-1, {1: False, -1: True}),
    (3, 1): (-1, {1: False, -1: True}),
    (5, 0): (1, {1: True, -1: False}),
    (3, 2): (1, {1: True, -1: False}),
    (6, 0): (-1, {1: False, -1: True}),
    (3, 3): (-1, {1: False, -1: True}),
}


@pytest.mark.parametrize("pq", list(GAMMA_TILDE_SIGNS), ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_gamma_tilde_sign_is_pinned(pq):
    # gamma_bar is built once and gamma_bar' rotated from it; both signs
    # are also checked on the Fraction route, a chain per generator
    sig = Signature(*pq)
    assert resolve_gamma_tilde_sign(sig) == GAMMA_TILDE_SIGNS[pq]
    h = build_affine(sig)
    for sign in (1, -1):
        gt = make_gamma_tilde(sig, sign)
        assert gt == make_gamma_bar(sig) + sign * make_gamma_bar_prime(sig)
        assert _killed_by(gt, range(h.dim)) == GAMMA_TILDE_SIGNS[pq][1][sign]


def _killed_by(chain, gens):
    """The Fraction route of ``annihilated_by``: one chain per generator."""
    return all(act(x, chain).is_zero() for x in gens)


@pytest.mark.parametrize("pq", [(2, 2), (3, 1)], ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_annihilated_by_matches_the_fraction_route(pq, rng):
    # random chains of wedge, mixed and tensor spaces, with int and Fraction
    # coefficients, the named invariants and their sums with random chains,
    # and the zero chain: the integer scan and the Fraction route agree
    sig = Signature(*pq)
    h, so = build_affine(sig), build_so(sig)
    spaces = [
        (wedge_space(h, 2), range(h.dim)),
        (wedge_space(h, 3), h.so_indices),
        (mixed_space(h, 1, lead=h.translation_indices), h.so_indices),
        (mixed_space(h, 2, lead=h.so_indices), h.so_indices),
        (tensor_space(h, 2), range(h.dim)),
        (tensor_space(h, 3), range(h.dim)),
    ]
    named = [
        (make_delta(sig), h.so_indices), (make_beta(sig), h.so_indices), (make_rho(sig), h.so_indices),
        (make_gamma(sig), h.so_indices), (make_alpha_tilde(sig), range(h.dim)),
        (make_gamma_tilde(sig, -1), range(h.dim)), (make_gamma_tilde(sig, 1), range(h.dim)),
    ]
    cases = [(space.zero(), gens) for space, gens in spaces]
    for space, gens in spaces:
        for _ in range(10):
            c = random_chain(space, rng)
            cases += [(c, gens), (Fraction(1, 6) * c + Fraction(2, 35) * random_chain(space, rng), gens)]
    for chain, gens in named:
        cases += [(chain, gens), (Fraction(-3, 14) * chain, gens),
                  (chain + Fraction(1, 9) * random_chain(chain.space, rng), gens)]
    results = [annihilated_by(chain, gens) for chain, gens in cases]
    assert results == [_killed_by(chain, gens) for chain, gens in cases]
    assert sum(results) >= len(spaces) + 2 * 6 and not all(results)
    # and one generator at a time, so that each generator's verdict counts
    single = [annihilated_by(chain, [x]) for chain, gens in cases for x in gens]
    assert single == [_killed_by(chain, [x]) for chain, gens in cases for x in gens]
    # the acting set may also be a subalgebra, resolved inside the space's algebra
    assert annihilated_by(make_gamma(sig), so) and not annihilated_by(make_gamma_tilde(sig, 1), h)


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
