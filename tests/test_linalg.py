"""Exact and modular elimination engines."""

import random
from fractions import Fraction

import pytest

from leibniz_homology import (
    ExactEliminator,
    SparseMatrix,
    SparseModularEliminator,
    kernel_basis,
    rank_mod_p,
    solve,
)
from leibniz_homology.complexes import LodayBoundary
from leibniz_homology.linalg import (
    PRIME_HI,
    PRIME_LO,
    draw_primes,
    is_probable_prime,
)


def random_matrix(rng, rows, cols, density=0.2, lo=-4, hi=4):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    entries[(i, j)] = v
    return SparseMatrix(rows, cols, entries)


def exact_rank(m):
    elim = ExactEliminator(m.rows if m.rows else 1)
    for col in m.columns():
        elim.add_column(col)
    return elim.rank


def test_identity_rank():
    assert exact_rank(SparseMatrix.identity(5)) == 5


def test_zero_matrix():
    m = SparseMatrix(7, 4)
    assert exact_rank(m) == 0
    assert rank_mod_p(m, 262147) == 0
    assert len(kernel_basis(m)) == 4


def test_primes():
    assert is_probable_prime(262147)
    assert not is_probable_prime(262149)
    rng = random.Random(7)
    ps = draw_primes(rng, 3)
    assert len(set(ps)) == 3
    assert all(PRIME_LO <= p < PRIME_HI and is_probable_prime(p) for p in ps)
    # reproducible
    assert draw_primes(random.Random(7), 3) == ps


def test_rank_plus_nullity(rng):
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        r = exact_rank(m)
        k = kernel_basis(m)
        assert r + len(k) == m.cols


def test_kernel_vectors_satisfy_matrix(rng):
    for _ in range(30):
        m = random_matrix(rng, 8, 10)
        for v in kernel_basis(m):
            assert not m.matvec({j: Fraction(c) for j, c in v.items()})


def test_modular_rank_never_exceeds_exact(rng):
    primes = draw_primes(random.Random(0), 2)
    equal = 0
    for _ in range(200):
        m = random_matrix(rng, 12, 12, density=0.25)
        r = exact_rank(m)
        for p in primes:
            rp = rank_mod_p(m, p)
            assert rp <= r
            equal += rp == r
    assert equal >= 380  # adversarial drops are vanishingly rare at these primes


def test_solve_witness_and_infeasible(rng):
    for _ in range(25):
        m = random_matrix(rng, 6, 9)
        x = {j: Fraction(rng.randint(-3, 3)) for j in range(9)}
        b = m.matvec(x)
        w = solve(m, b)
        assert w is not None
        assert m.matvec(w) == {i: v for i, v in b.items() if v}
    # infeasible: zero map cannot hit a nonzero vector
    m0 = SparseMatrix(3, 4)
    assert solve(m0, {0: 1}) is None


def test_solve_over_abelian_boundary_infeasible():
    from leibniz_homology import build_abelian

    op = LodayBoundary(build_abelian(2))
    m = op.matrix(2)  # the zero map
    assert solve(m, {0: 1}) is None


def test_fraction_columns_exact():
    m = SparseMatrix(2, 2, {(0, 0): Fraction(1, 3), (1, 1): Fraction(2, 7)})
    assert exact_rank(m) == 2
    v = solve(m, {0: Fraction(1), 1: Fraction(1)})
    assert v == {0: Fraction(3), 1: Fraction(7, 2)}


def test_big_integer_fallback():
    big = 2**80
    m = SparseMatrix(2, 2, {(0, 0): big, (0, 1): big + 1, (1, 0): 1, (1, 1): 1})
    assert exact_rank(m) == 2
    m2 = SparseMatrix(2, 2, {(0, 0): big, (0, 1): big, (1, 0): 1, (1, 1): 1})
    assert exact_rank(m2) == 1


def test_boundary_rank_cross_field(h22):
    op = LodayBoundary(h22)
    m2 = op.matrix(2)
    assert (m2.rows, m2.cols) == (10, 100)
    r = exact_rank(m2)
    for p in draw_primes(random.Random(3), 2):
        assert rank_mod_p(m2, p) == r
    m3 = op.matrix(3)
    r3 = exact_rank(m3)
    for p in draw_primes(random.Random(4), 2):
        assert rank_mod_p(m3, p) == r3


def test_streamed_rank_two_primes(h22):
    from leibniz_homology.homology import _rank_modular_blocks

    blocks = LodayBoundary(h22).blocks(4)
    p1, p2 = draw_primes(random.Random(5), 2)
    assert _rank_modular_blocks(blocks, [p1]) == _rank_modular_blocks(blocks, [p2]) == 909
    assert _rank_modular_blocks(blocks, [p1, p2]) == 909


def test_streamed_rank_rejects_composite():
    with pytest.raises(ValueError):
        SparseModularEliminator(2, 262149)


def test_scaling_invariance_of_rank(rng):
    # rank of a stacked map is unchanged by scaling any block
    m = random_matrix(rng, 6, 8)
    scaled = SparseMatrix(6, 8, {k: 7 * v for k, v in m.entries.items()})
    assert exact_rank(m) == exact_rank(scaled)
