"""Betti tables, predictions, duality, caps."""

import pytest

from leibniz_homology import (
    HomologyOptions,
    Signature,
    build_abelian,
    build_affine,
    cohomology_dims,
    homology_dims,
    predicted_hl_dims,
)


def test_abelian_oracle():
    rep = homology_dims(build_abelian(2), 3)
    assert rep.betti == [1, 2, 4, 8]
    assert all(e.certification == "exact" for e in rep.entries)
    rep3 = homology_dims(build_abelian(3), 2)
    assert rep3.betti == [1, 3, 9]


def test_predicted_series():
    assert predicted_hl_dims(Signature(2, 2), 10) == [1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 1]
    assert predicted_hl_dims(Signature(3, 2), 9) == [1, 0, 0, 0, 1, 1, 0, 0, 1, 1]
    # degree 1 is always zero for n >= 4
    for p, q in [(2, 2), (3, 2), (4, 2)]:
        assert predicted_hl_dims(Signature(p, q), 1)[1] == 0
    with pytest.raises(ValueError):
        predicted_hl_dims(Signature(2, 1), 4)


def test_h4_exact_through_degree_3(sig4):
    rep = homology_dims(build_affine(sig4), 3)
    assert rep.betti == [1, 0, 0, 1]
    assert rep.matches == [True, True, True, True]
    assert all(e.certification == "exact" for e in rep.entries)
    assert rep.certificates[4].rank == 909


def test_rank_nullity_identity(sig4):
    rep = homology_dims(build_affine(sig4), 3)
    for e in rep.entries:
        assert e.dim == e.rank_d_k + e.rank_d_k1 + e.betti
        assert e.betti >= 0


def test_overreported_rank_raises(monkeypatch):
    # a rank larger than the chain space must stop the report, also under -O
    from leibniz_homology import RankCertificate, homology

    monkeypatch.setattr(
        homology,
        "_boundary_rank",
        lambda op, k, *args: RankCertificate(op.algebra.dim**k, "Q", "exact"),
    )
    with pytest.raises(RuntimeError, match="exceeds the dimension"):
        homology_dims(build_abelian(2), 2)


def test_duality_flags():
    rep = homology_dims(build_abelian(2), 3)
    dual = cohomology_dims(rep)
    assert dual.variant == "cohomology"
    assert dual.betti == rep.betti
    assert [e.dim for e in dual.entries] == [e.dim for e in rep.entries]
    # the original report is untouched
    assert rep.variant == "homology"


def test_mode_exact_cap():
    h = build_affine(Signature(2, 2))
    opts = HomologyOptions(mode="exact", cap_exact=500)
    rep = homology_dims(h, 3, options=opts)
    assert rep.capped_at == 3  # 1000 columns at degree 3 exceed the cap
    assert [e.degree for e in rep.entries] == [0, 1]


def test_mode_modular_small():
    h = build_affine(Signature(2, 2))
    opts = HomologyOptions(mode="modular")
    rep = homology_dims(h, 2, options=opts)
    assert rep.betti == [1, 0, 0]
    assert rep.entries[1].certification == "two-prime"
    assert rep.certificates[2].primes_used


def test_ce_homology_of_translations():
    # H(h ⊗ Λ* I) for the affine algebra: small exact computation runs clean
    h = build_affine(Signature(2, 2))
    rep = homology_dims(h, 3, kind="ce")
    assert [e.dim for e in rep.entries] == [10, 40, 60, 40]
    for e in rep.entries:
        assert e.dim == e.rank_d_k + e.rank_d_k1 + e.betti


def test_ce_homology_abelian():
    # graded algebras use the whole algebra as coefficients: I_2 ⊗ Λ^k I_2
    # with zero boundary, dimensions 2·C(2,k)
    rep = homology_dims(build_abelian(2), 2, kind="ce")
    assert rep.betti == [2, 4, 2]
    assert [e.dim for e in rep.entries] == [2, 4, 2]


def test_ce_homology_semisimple_trivial_coefficients():
    # ungraded algebras fall back to trivial coefficients: the classical
    # Lie homology of so(2,1) (three-dimensional simple) is 1, 0, 0, 1
    from leibniz_homology import build_so

    rep = homology_dims(build_so(Signature(2, 1)), 3, kind="ce")
    assert rep.betti == [1, 0, 0, 1]


def test_environment_recorded():
    rep = homology_dims(build_abelian(2), 2, options=HomologyOptions(seed=42))
    assert rep.environment["seed"] == 42
    assert len(rep.environment["primes"]) == 2


@pytest.mark.slow
def test_h5_degree4_two_prime():
    # the first tensor-algebra generator sits in degree n-1 = 4 at n = 5;
    # its detection needs the rank of the 50625 x 759375 boundary
    rep = homology_dims(build_affine(Signature(2, 3)), 4)
    assert rep.betti == [1, 0, 0, 0, 1]
    assert rep.matches and all(rep.matches)
    assert rep.entries[4].certification == "two-prime"


@pytest.mark.slow
def test_h4_degree4_two_prime(sig4):
    rep = homology_dims(build_affine(sig4), 4)
    assert rep.betti == [1, 0, 0, 1, 1]
    assert rep.matches and all(rep.matches)
    assert rep.entries[4].certification == "two-prime"
    cert = rep.certificates[5]
    assert cert.method == "modular" and cert.rank == 9090 and len(cert.primes_used) == 2
