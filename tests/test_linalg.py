"""Exact and modular elimination engines."""

import math
import random
from fractions import Fraction

import pytest

from leibniz_homology import (
    ExactEliminator,
    Signature,
    SparseModularEliminator,
    build_affine,
    kernel_basis,
    solve,
)
from leibniz_homology.complexes import BoundaryBlock, LodayBoundary
from leibniz_homology.linalg import (
    PRIME_HI,
    PRIME_LO,
    _cofactors,
    _combine,
    _image,
    _normalize,
    draw_primes,
    integer_column,
    is_probable_prime,
)
from leibniz_homology.split import split_reduction


def matrix(rows, cols, entries=()):
    """The ``(rows, columns)`` form of a rows x cols matrix given as {(i, j): v}."""
    columns = [[] for _ in range(cols)]
    for (i, j), v in sorted(dict(entries).items()):
        columns[j].append((i, v))
    return rows, columns


def random_matrix(rng, rows, cols, density=0.2, lo=-4, hi=4):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randint(lo, hi)
                if v:
                    entries[(i, j)] = v
    return matrix(rows, cols, entries)


def full_boundary(op, k):
    """The whole, unblocked d_k of a Loday boundary: rows the degree k-1 words."""
    return BoundaryBlock(None, op.space(k), op.space(k - 1), op.word_boundary)


def exact_rank(m):
    rows, columns = m
    elim = ExactEliminator(rows)
    for col in columns:
        elim.add_column(col)
    return elim.rank


def modular_rank(m, p):
    rows, columns = m
    elim = SparseModularEliminator(rows, p)
    elim.process_sparse_columns(columns)
    return elim.rank


def test_identity_rank():
    assert exact_rank(matrix(5, 5, {(i, i): 1 for i in range(5)})) == 5


def test_zero_matrix():
    m = matrix(7, 4)
    assert exact_rank(m) == 0
    assert modular_rank(m, 262147) == 0
    assert len(kernel_basis(*m)) == 4


@pytest.mark.parametrize("row", [-1, 3])
def test_column_row_index_out_of_range(row):
    # a tracked eliminator would read row 3 of a 3-row matrix as the
    # combination coordinate of the first column: a wrong kernel, silently
    columns = [[(0, 1)], [(row, 1)]]
    with pytest.raises(ValueError, match="out of range"):
        kernel_basis(3, columns)
    with pytest.raises(ValueError, match="out of range"):
        solve(3, columns, {0: 1})


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
        k = kernel_basis(*m)
        assert r + len(k) == len(m[1])


def test_kernel_vectors_satisfy_matrix(rng):
    for _ in range(30):
        m = random_matrix(rng, 8, 10)
        for v in kernel_basis(*m):
            assert not _image(m[1], v)


def test_modular_rank_never_exceeds_exact(rng):
    primes = draw_primes(random.Random(0), 2)
    equal = 0
    for _ in range(200):
        m = random_matrix(rng, 12, 12, density=0.25)
        r = exact_rank(m)
        for p in primes:
            rp = modular_rank(m, p)
            assert rp <= r
            equal += rp == r
    assert equal >= 380  # adversarial drops are vanishingly rare at these primes


def test_solve_witness_and_infeasible(rng):
    for _ in range(25):
        m = random_matrix(rng, 6, 9)
        x = {j: Fraction(rng.randint(-3, 3)) for j in range(9)}
        b = _image(m[1], x)
        w = solve(*m, b)
        assert w is not None
        assert _image(m[1], w) == {i: v for i, v in b.items() if v}
    # infeasible: zero map cannot hit a nonzero vector
    m0 = matrix(3, 4)
    assert solve(*m0, {0: 1}) is None
    # a row index past the matrix would land on a combination coordinate
    with pytest.raises(ValueError):
        solve(*m0, {3: 1})


def test_solve_over_abelian_boundary_infeasible():
    from leibniz_homology import build_abelian

    op = LodayBoundary(build_abelian(2))
    m = full_boundary(op, 2)  # the zero map
    assert solve(m.rows, m.columns(), {0: 1}) is None


def test_fraction_columns_exact():
    m = matrix(2, 2, {(0, 0): Fraction(1, 3), (1, 1): Fraction(2, 7)})
    assert exact_rank(m) == 2
    v = solve(*m, {0: Fraction(1), 1: Fraction(1)})
    assert v == {0: Fraction(3), 1: Fraction(7, 2)}


def test_big_integer_fallback():
    big = 2**80
    m = matrix(2, 2, {(0, 0): big, (0, 1): big + 1, (1, 0): 1, (1, 1): 1})
    assert exact_rank(m) == 2
    assert kernel_basis(*m) == []
    # [[big, big+1], [1, 1]] x = (1, 0) has x = (-1, 1)
    assert solve(*m, {0: 1}) == {0: Fraction(-1), 1: Fraction(1)}
    m2 = matrix(2, 2, {(0, 0): big, (0, 1): big, (1, 0): 1, (1, 1): 1})
    assert exact_rank(m2) == 1
    assert kernel_basis(*m2) == [{0: -1, 1: 1}]
    assert solve(*m2, {0: big, 1: 1}) == {0: Fraction(1)}
    assert solve(*m2, {0: 1}) is None
    # fractions with big denominators: column 1 is -big/3 times column 0
    m3 = matrix(2, 3, {(0, 0): Fraction(1, big), (1, 0): 3, (0, 1): Fraction(-1, 3),
                       (1, 1): -big, (1, 2): Fraction(big, 7)})
    assert exact_rank(m3) == 2
    assert kernel_basis(*m3) == [{1: 3, 0: big}]
    assert solve(*m3, {0: 1, 1: 0}) == {0: Fraction(big), 2: Fraction(-21)}


def _check_reduced_echelon(elim, exact):
    """Rows zero at every other pivot, normalized leads, exact ``users`` index
    (the support map of the rows below ``rowdim``)."""
    users: dict[int, set[int]] = {}
    for piv, row in elim.basis.items():
        assert all(row.values())
        assert [c for c in row if c in elim.basis] == [piv]
        if exact:
            assert row[piv] > 0 and math.gcd(*row.values()) == 1
        else:
            assert row[piv] == 1 and all(0 < x < elim.p for x in row.values())
        for c in row:
            if c < elim.rowdim:
                users.setdefault(c, set()).add(piv)
    assert {c: s for c, s in elim.users.items() if s} == users


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "modular"])
def test_eliminator_invariants(rng, exact):
    p = draw_primes(random.Random(9), 1)[0]
    for _ in range(60):
        rows = rng.randint(1, 12)
        elim = ExactEliminator(rows, track=True) if exact else SparseModularEliminator(rows, p)
        cols = []
        dependent = 0
        for t in range(rng.randint(1, 16)):
            cols.append([(i, rng.randint(-9, 9)) for i in range(rows) if rng.random() < 0.4])
            new = elim.add_column(cols[-1])
            _check_reduced_echelon(elim, exact)
            if exact and new:
                assert elim.relation is None
            if exact and not new:  # a primitive relation, positive on column t
                rel = elim.relation
                assert max(rel) == t and rel[t] > 0 and math.gcd(*rel.values()) == 1
                assert _int_image(cols, rel) == {}
                dependent += 1
        if exact:  # each tracked row is its vector followed by its combination of the fed columns
            assert all(piv < rows for piv in elim.basis)  # combination coordinates never pivot
            assert dependent == len(cols) - elim.rank
            for row in elim.basis.values():
                combo = {c - rows: x for c, x in row.items() if c >= rows}
                assert _int_image(cols, combo) == {c: x for c, x in row.items() if c < rows}


def _combine_add_column(elim, col):
    """``ExactEliminator.add_column`` as it was before the in-place pass:
    every pivot the column hits gives a new dict from ``_combine``."""
    rowdim = elim.rowdim
    scale, col = integer_column(col)
    work = {r: v for r, v in col if v}
    if elim.track:
        work[rowdim + elim.fed] = scale
    elim.fed += 1
    elim._left = None
    for piv in [r for r in work if r in elim.basis]:
        a, b = _cofactors(elim.basis[piv][piv], work[piv])
        work = _combine(a, work, b, elim.basis[piv])
    piv = max((r for r in work if r < rowdim), default=None)
    if piv is None:
        if elim.track:
            elim._left = work
        return False
    work = _normalize(work, piv)
    users = elim.users
    for piv2 in list(users.get(piv, ())):
        row2 = elim.basis[piv2]
        a, b = _cofactors(work[piv], row2[piv])
        new2 = _normalize(_combine(a, row2, b, work), piv2)
        for r in row2.keys() - new2.keys():
            if r < rowdim:
                users[r].discard(piv2)
        for r in new2.keys() - row2.keys():
            if r < rowdim:
                users.setdefault(r, set()).add(piv2)
        elim.basis[piv2] = new2
    elim.basis[piv] = work
    for r in work:
        if r < rowdim:
            users.setdefault(r, set()).add(piv)
    return True


def _assert_same_reduction(rows, cols, track):
    """The in-place reduction and the ``_combine`` one give the same pivots,
    rows (key order included), users and relations, and leave every fed
    column as it was."""
    elim, oracle = ExactEliminator(rows, track=track), ExactEliminator(rows, track=track)
    for t, col in enumerate(cols):
        fed = list(col)
        assert elim.add_column(col) == _combine_add_column(oracle, col), t
        assert col == fed
        got, want = elim.relation, oracle.relation
        assert got == want and list(got or ()) == list(want or ()), t  # key order too
    assert elim.rank == oracle.rank
    assert [(p, list(row.items())) for p, row in elim.basis.items()] == [
        (p, list(row.items())) for p, row in oracle.basis.items()
    ]
    assert elim.users == oracle.users
    return elim.rank


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "fraction"])
def test_in_place_reduction_matches_combine(rng, fractions):
    dependent = 0
    for _ in range(80):
        rows, ncols = rng.randint(1, 10), rng.randint(1, 18)
        cols = []
        for _ in range(ncols):
            col = []
            for i in range(rows):
                if rng.random() < 0.4:
                    v = rng.randint(-9, 9)
                    col.append((i, Fraction(v, rng.randint(1, 6)) if fractions else v))
            cols.append(col)
        dependent += ncols - _assert_same_reduction(rows, cols, track=True)
    assert dependent  # relations were compared


@pytest.mark.parametrize("track", [False, True], ids=["rank", "tracked"])
def test_in_place_reduction_matches_combine_on_d5(track):
    red = split_reduction(build_affine(Signature(2, 2)))
    op = LodayBoundary(red.algebra, keep=red.grades, symmetries=red.symmetries)
    total = sum(_assert_same_reduction(b.rows, list(b.columns()), track) for b in op.blocks(5))
    assert total == 148  # rank d_5 = 161 - rank d_4 - betti_4 = 161 - 12 - 1


def _int_image(cols, combo):
    """sum_t combo[t] * cols[t] in integers, without zero entries."""
    out = {}
    for t, x in combo.items():
        for i, v in cols[t]:
            out[i] = out.get(i, 0) + x * v
    return {i: v for i, v in out.items() if v}


def test_boundary_rank_cross_field(h22):
    op = LodayBoundary(h22)
    d2 = full_boundary(op, 2)
    assert (d2.rows, d2.cols) == (10, 100)
    m2 = (d2.rows, list(d2.columns()))
    r = exact_rank(m2)
    for p in draw_primes(random.Random(3), 2):
        assert modular_rank(m2, p) == r
    d3 = full_boundary(op, 3)
    m3 = (d3.rows, list(d3.columns()))
    r3 = exact_rank(m3)
    for p in draw_primes(random.Random(4), 2):
        assert modular_rank(m3, p) == r3


def test_streamed_rank_two_primes(h22):
    from leibniz_homology.homology import _rank_blocks

    op = LodayBoundary(h22)
    blocks = op.blocks(4)
    p1, p2 = draw_primes(random.Random(5), 2)
    assert _rank_blocks(blocks, p1) == _rank_blocks(blocks, p2) == _rank_blocks(blocks) == 909
    # the grade blocks against the whole d_4
    d4 = full_boundary(op, 4)
    assert modular_rank((d4.rows, d4.columns()), p1) == 909


def test_pivot_is_the_largest_row():
    p = draw_primes(random.Random(12), 1)[0]
    for elim in (ExactEliminator(5), ExactEliminator(5, track=True), SparseModularEliminator(5, p)):
        assert elim.add_column([(1, 2), (3, -1)]) and set(elim.basis) == {3}
        assert elim.add_column([(0, 1), (3, 1)]) and set(elim.basis) == {1, 3}  # left on rows 0 and 1
        assert not elim.add_column([(0, 1), (1, 2)])  # the sum of the two


@pytest.mark.slow
@pytest.mark.parametrize(
    "pq, top",
    [
        pytest.param(pq, top, id=f"{pq[0]}_{pq[1]}")
        for pq, top in [((2, 2), 6), ((3, 1), 5), ((1, 3), 5), ((4, 0), 5), ((2, 3), 5), ((3, 3), 4)]
    ],
)
def test_largest_row_pivot_matches_least_row_pivot(pq, top):
    # every kept block the orbit route ranks through d_top, in both engines:
    # feeding row r as rows - 1 - r pivots on the least row, the former rule
    red = split_reduction(build_affine(Signature(*pq)))
    op = LodayBoundary(red.algebra, keep=red.grades, symmetries=red.symmetries)
    p = draw_primes(random.Random(13), 1)[0]
    total = 0
    for k in range(1, top + 1):
        for block in op.blocks(k):
            rows, cols = block.rows, list(block.columns())
            flipped = [sorted((rows - 1 - r, v) for r, v in col) for col in cols]
            r = exact_rank((rows, cols))
            assert r == exact_rank((rows, flipped)), (k, block.grade)
            assert modular_rank((rows, cols), p) == modular_rank((rows, flipped), p) == r, (k, block.grade)
            total += r
    assert total


def test_denominator_divisible_by_prime_keeps_rank():
    # the column is scaled to integers first, so 1/p is read as 1: rank 2, the rank over Q
    p = draw_primes(random.Random(11), 1)[0]
    m = matrix(2, 2, {(0, 0): 1, (1, 1): Fraction(1, p)})
    assert modular_rank(m, p) == 2 == exact_rank(m)
    assert modular_rank(matrix(2, 2, {(0, 0): 1, (1, 1): Fraction(1, p + 2)}), p) == 2


def test_integer_column():
    col = [(0, 3), (4, -1)]
    assert integer_column(col) == (1, col) and integer_column(col)[1] is col
    assert integer_column([(0, Fraction(1, 2)), (2, 1), (5, Fraction(-2, 3))]) == (6, [(0, 3), (2, 6), (5, -4)])
    assert integer_column([(1, Fraction(4, 1))]) == (1, [(1, 4)])
    assert integer_column([]) == (1, [])


def test_streamed_rank_rejects_composite():
    with pytest.raises(ValueError):
        SparseModularEliminator(2, 262149)


def test_scaling_invariance_of_rank(rng):
    # rank of a stacked map is unchanged by scaling any block
    m = random_matrix(rng, 6, 8)
    scaled = (6, [[(i, 7 * v) for i, v in col] for col in m[1]])
    assert exact_rank(m) == exact_rank(scaled)
