"""Acceptance criteria, one test per criterion, each printing a pass line
with its runtime against the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s``.  The non-gating stretch
computation (degrees 5 and 6 at n = 4) only runs when RUN_STRETCH=1.
"""

import json
import os
import random
import time
from fractions import Fraction

import pytest

from leibniz_homology import (
    Signature,
    annihilated_by,
    build_abelian,
    build_affine,
    build_so,
    cohomology_dims,
    embed_mixed_in_tensor,
    homology_dims,
    invariant_subspace,
    is_boundary,
    is_cycle,
    make_alpha_tilde,
    make_beta,
    make_delta,
    make_gamma,
    make_gamma_bar,
    make_gamma_tilde,
    make_rho,
    mixed_space,
    proportional,
    resolve_gamma_tilde_sign,
    validate,
    wedge_space,
)
from leibniz_homology.cli import EXIT_OK, main
from leibniz_homology.complexes import LodayBoundary, check_dd_zero

from vfield_oracle import oracle_bracket


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} {self.name} ({elapsed:.1f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its time budget"
        return False


def all_signatures(n_lo=2, n_hi=6):
    for n in range(n_lo, n_hi + 1):
        for p in range(1, n + 1):
            yield Signature(p, n - p)


def test_criterion_01_structure_soundness():
    with Budget("criterion 1: structure soundness for 2 <= n <= 6", 10):
        for sig in all_signatures():
            for alg in (build_so(sig), build_affine(sig)):
                rep = validate(alg)
                assert rep.antisymmetry_ok and rep.jacobi_ok, (sig, alg.name)
                assert rep.integral and rep.oracle_ok, (sig, alg.name)
                for a in range(alg.dim):
                    for b in range(a + 1, alg.dim):
                        got = {
                            str(alg.labels[c]): Fraction(v)
                            for c, v in alg.bracket(a, b).items()
                        }
                        want = oracle_bracket(
                            str(alg.labels[a]), str(alg.labels[b]), sig.p, sig.n
                        )
                        assert got == want, (sig, alg.labels[a], alg.labels[b])


TABLE_SIGS = [(1, 3), (2, 2), (3, 1), (1, 4), (2, 3)]


def test_criterion_02_wedge_invariant_table():
    with Budget("criterion 2: wedge-power invariant dimensions", 30):
        for p, q in TABLE_SIGS:
            sig = Signature(p, q)
            h = build_affine(sig)
            so = build_so(sig)
            for k in range(sig.n + 1):
                dim = invariant_subspace(so, wedge_space(h, k)).dim
                assert dim == (1 if k in (0, sig.n) else 0), (sig, k, dim)


def test_criterion_03_vector_wedge_invariant_table():
    with Budget("criterion 3: translations ⊗ wedge invariant dimensions", 120):
        for p, q in TABLE_SIGS:
            sig = Signature(p, q)
            h = build_affine(sig)
            so = build_so(sig)
            for k in range(sig.n + 1):
                dim = invariant_subspace(
                    so, mixed_space(h, k, lead=h.translation_indices)
                ).dim
                assert dim == (1 if k in (1, sig.n - 1) else 0), (sig, k, dim)


def test_criterion_04_so_wedge_invariant_table():
    with Budget("criterion 4: so ⊗ wedge invariant dimensions and generators", 300):
        for p in range(1, 5):
            sig = Signature(p, 5 - p)
            h = build_affine(sig)
            so = build_so(sig)
            for k in range(6):
                basis = invariant_subspace(so, mixed_space(h, k, lead=h.so_indices))
                assert basis.dim == (1 if k in (2, 3) else 0), (sig, k, basis.dim)
            b2 = invariant_subspace(so, mixed_space(h, 2, lead=h.so_indices))
            assert proportional(b2.basis[0], make_rho(sig)), sig
            b3 = invariant_subspace(so, mixed_space(h, 3, lead=h.so_indices))
            assert proportional(b3.basis[0], make_gamma(sig)), sig
        # n = 4: the k=2 / k=n-2 cases coincide; computed and reported, the
        # value 2 frozen from the independent kernel computation
        for p, q in [(2, 2), (3, 1), (1, 3)]:
            sig = Signature(p, q)
            h = build_affine(sig)
            so = build_so(sig)
            dim = invariant_subspace(so, mixed_space(h, 2, lead=h.so_indices)).dim
            print(
                f"  reported: [so ⊗ wedge^2]^so at {sig} has dimension {dim} "
                "(statement ambiguous at n=4; expected 2 by direct kernel computation)"
            )
            assert dim == 2, sig


def test_criterion_05_named_invariant_annihilation():
    with Budget("criterion 5: named invariants annihilated exactly", 60):
        for p, q in [(2, 2), (3, 1), (2, 3)]:
            sig = Signature(p, q)
            h = build_affine(sig)
            so = build_so(sig)
            for chain in (make_delta(sig), make_beta(sig), make_rho(sig), make_gamma(sig)):
                assert annihilated_by(chain, so), (sig, "so-invariant element")
            sign, _ = resolve_gamma_tilde_sign(sig)
            for chain in (make_alpha_tilde(sig), make_gamma_tilde(sig, sign)):
                assert annihilated_by(chain, range(h.dim)), (sig, "affine-invariant element")


def test_criterion_06_gamma_tilde_sign_resolution():
    with Budget("criterion 6: gamma-tilde sign resolution", 60):
        signs = {}
        for p, q in [(2, 2), (3, 1)]:
            sig = Signature(p, q)
            resolved, detail = resolve_gamma_tilde_sign(sig)
            assert resolved is not None, (sig, detail)
            assert detail[resolved] and not detail[-resolved], (sig, detail)
            signs[(p, q)] = resolved
        assert signs[(2, 2)] == signs[(3, 1)]
        print(f"  resolved sign at both n=4 signatures: {signs[(2,2)]:+d}")


def test_criterion_07_cycle_and_homologous_claims():
    with Budget("criterion 7: cycle / homologous / not-a-cycle claims", 120):
        for p, q in [(2, 2), (3, 1)]:
            sig = Signature(p, q)
            sign, _ = resolve_gamma_tilde_sign(sig)
            gamma_bar = make_gamma_bar(sig)
            gamma_tilde = make_gamma_tilde(sig, sign)
            assert is_cycle(gamma_bar), sig
            assert is_cycle(gamma_tilde), sig
            witness = is_boundary(gamma_tilde - gamma_bar)
            assert witness is not None, sig
            assert not is_cycle(embed_mixed_in_tensor(make_rho(sig))), sig


@pytest.mark.slow
def test_criterion_08_predicted_homology_dimensions():
    with Budget("criterion 8: Loday Betti numbers at n = 4 match the predicted series", 600):
        for p, q in [(2, 2), (3, 1)]:
            sig = Signature(p, q)
            rep = homology_dims(build_affine(sig), 4)
            assert rep.betti == [1, 0, 0, 1, 1], (sig, rep.betti)
            assert rep.matches and all(rep.matches), sig
            # the kept blocks of d_5 (4,992 and 11,132 columns) are ranked over Q
            for k in range(0, 5):
                assert rep.entries[k].certification == "exact", (sig, k)
            assert rep.certificates[5].method == "exact", sig


@pytest.mark.stretch
@pytest.mark.skipif(
    not os.environ.get("RUN_STRETCH"),
    reason="stretch (non-gating): degree 5-6 Betti numbers; enable with RUN_STRETCH=1",
)
def test_criterion_08_stretch_degrees_5_and_6():
    # Degree 6 needs the rank of d_7 on the orbit sums of its kept blocks:
    # 90,664 columns, under the default exact cap, so the whole table is
    # exact over Q.  It is the first computed class of T(gamma~) past gamma~.
    with Budget("criterion 8 stretch: degrees 5 and 6 at (2,2)", 3600):
        rep = homology_dims(build_affine(Signature(2, 2)), 6)
        assert rep.capped_at is None
        assert rep.betti == [1, 0, 0, 1, 1, 0, 1]
        assert rep.matches and all(rep.matches)
        assert all(e.certification == "exact" for e in rep.entries)
        print(f"  degree 6 betti = 1 verified (exact); d_7 rank {rep.certificates[7].rank}")


def test_criterion_09_abelian_oracle():
    with Budget("criterion 9: abelian homology oracle", 1):
        rep2 = homology_dims(build_abelian(2), 3)
        assert rep2.betti == [1, 2, 4, 8]
        rep3 = homology_dims(build_abelian(3), 2)
        assert rep3.betti == [1, 3, 9]


def test_criterion_10_differential_soundness():
    with Budget("criterion 10: d∘d = 0 on 100 random chains per degree", 60):
        rng = random.Random(0)
        for algebra in (build_affine(Signature(2, 2)), build_affine(Signature(3, 1)),
                        build_abelian(3)):
            check_dd_zero(LodayBoundary(algebra), range(2, 7), rng, count=100)
        from leibniz_homology import CEBoundary

        h = build_affine(Signature(2, 2))
        ce = CEBoundary(h, range(h.dim), h.translation_indices)
        check_dd_zero(ce, range(2, 5), rng, count=100)


def test_criterion_11_duality():
    with Budget("criterion 11: cohomology tables equal homology tables", 60):
        reports = [
            homology_dims(build_abelian(2), 3),
            homology_dims(build_affine(Signature(2, 2)), 3),
            homology_dims(build_affine(Signature(3, 1)), 2, kind="ce"),
        ]
        for rep in reports:
            dual = cohomology_dims(rep)
            assert dual.betti == rep.betti
            assert [e.dim for e in dual.entries] == [e.dim for e in rep.entries]
            assert dual.variant == "cohomology"


@pytest.mark.slow
def test_criterion_12_reproducibility(tmp_path):
    with Budget("criterion 12: byte-identical verify reports", 600):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for path in paths:
            code = main(
                ["verify", "--suite", "paper", "--p", "2", "--q", "2",
                 "--seed", "42", "--json", str(path)]
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()
        data = json.loads(paths[0].read_text())
        assert data["schema_version"] == "1"
        assert data["resolved_gamma_sign"] == -1
