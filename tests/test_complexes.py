"""Loday and CE boundaries, cycles, boundaries, embeddings."""

import hashlib
import math
from fractions import Fraction

import pytest

from leibniz_homology import (
    BoostY,
    CEBoundary,
    LieAlgebra,
    ModuleLawError,
    WedgeBoundary,
    RotationX,
    Signature,
    Translation,
    build_abelian,
    build_abelian_extension,
    build_affine,
    embed_mixed_in_tensor,
    is_boundary,
    is_cycle,
    make_alpha_tilde,
    make_gamma_bar,
    make_gamma_tilde,
    make_rho,
    random_chain,
    resolve_gamma_tilde_sign,
    tensor_space,
    tensor_to_wedge,
)
from leibniz_homology import liealg, rotations, split
from leibniz_homology.complexes import BoundaryBlock, LodayBoundary, check_dd_zero
from leibniz_homology.rotations import chain_symmetries, letter_action
from leibniz_homology.homology import _rank_blocks
from leibniz_homology.split import split_form, split_reduction
from leibniz_homology.linalg import ExactEliminator, _image, solve
from leibniz_homology.repspace import Chain, GradeBlock, OrbitBlock, graded_words


def t(h, i):
    return h.index(Translation(i))


def full_boundary(op, k):
    """The whole, unblocked d_k of a Loday boundary: rows the degree k-1 words."""
    return BoundaryBlock(None, op.space(k), op.space(k - 1), op.word_boundary)


def exact_rank(m):
    elim = ExactEliminator(m.rows)
    for col in m.columns():
        elim.add_column(col)
    return elim.rank


def test_loday_boundary_degree2_example(h31):
    op = LodayBoundary(h31)
    sp = tensor_space(h31, 2)
    c = sp.basis_chain((t(h31, 1), h31.index(RotationX(1, 2))))
    out = op.apply(c)
    assert out == tensor_space(h31, 1).basis_chain((t(h31, 2),), -1)


def test_loday_degree1_is_zero_map(h22):
    op = LodayBoundary(h22)
    c = tensor_space(h22, 1).basis_chain((3,))
    assert op.apply(c).is_zero()


def test_abelian_boundary_vanishes(rng):
    a = build_abelian(3)
    op = LodayBoundary(a)
    for k in (2, 3, 4):
        sp = tensor_space(a, k)
        for _ in range(20):
            assert op.apply(random_chain(sp, rng)).is_zero()


def test_dd_zero_full_matrices(h22):
    op = LodayBoundary(h22)
    d2, d3 = list(full_boundary(op, 2).columns()), full_boundary(op, 3)
    # compose: columns of d_3 pushed through d_2 must vanish
    for col in d3.columns():
        assert not _image(d2, dict(col))


def test_dd_zero_random_chains(h22, h31, rng):
    # the Chain route over the whole complex, split form included: the
    # cross-check of the d∘d checks, which read only the ranked columns
    for a in (h22, h31, split_reduction(h22).algebra):
        op = LodayBoundary(a)
        for k in range(2, 7):
            for _ in range(100):
                chain = random_chain(tensor_space(a, k), rng)
                assert op.apply(op.apply(chain)).is_zero(), (a.name, k, chain)


def test_loday_blocks_cover_full_matrix(h22):
    # the graded blocks, and the single (0, 0) block of the same algebra
    # with the default grading
    ungraded = LieAlgebra(h22.labels, h22.structure, name="h22-ungraded")
    assert ungraded.grades == ((0, 0),) * h22.dim
    for alg in (h22, ungraded):
        op = LodayBoundary(alg)
        assert op.blocks(0) == [] and op.blocks(1) == []  # d_1 is the zero map
        for k in (2, 3):
            blocks = op.blocks(k)
            assert sum(b.cols for b in blocks) == alg.dim**k
            if alg is ungraded:
                assert [b.grade for b in blocks] == [(0, 0)]
            # block columns reproduce the full matrix columns
            full_cols = list(full_boundary(op, k).columns())
            for b in blocks:
                for j in range(b.cols):
                    word = b.colspace.unrank_word(j)
                    jfull = tensor_space(alg, k).rank_word(word)
                    got = [(b.rowspace.unrank_word(r), v) for r, v in b.column(j)]
                    want_col = full_cols[jfull]
                    want = [
                        (tensor_space(alg, k - 1).unrank_word(r), v) for r, v in want_col
                    ]
                    assert sorted(got) == sorted(want)


def _cases(standard, split):
    """(pq, split) parameters: the standard algebras, then split forms, whose
    grades carry torus weights too."""
    return [pytest.param(pq, False, id=f"{pq[0]}_{pq[1]}") for pq in standard] + [
        pytest.param(pq, True, id=f"split_{pq[0]}_{pq[1]}") for pq in split
    ]


@pytest.mark.parametrize("pq, split", _cases([(2, 2), (3, 1), (4, 0), (3, 3)], [(2, 2), (3, 1), (3, 3)]))
def test_grade_blocks_index_every_word_once(pq, split):
    alg = build_affine(Signature(*pq))
    alg = split_form(alg) if split else alg
    words = graded_words(alg.grades)
    op = LodayBoundary(alg)
    for k in (2,) if pq == (3, 3) else (2, 3):
        blocks = op.blocks(k)
        assert [b.grade for b in blocks] == sorted(b.grade for b in blocks)
        assert sum(b.cols for b in blocks) == alg.dim**k
        for b in blocks:
            assert b.colspace.dim == b.cols > 0
            assert b.rowspace.dim == b.rows
            for space, count in ((b.colspace, b.cols), (b.rowspace, b.rows)):
                # every word round-trips through rank/unrank and carries the grade
                words_ = [space.unrank_word(r) for r in range(count)]
                assert [space.rank_word(w) for w in words_] == list(range(count))
                assert words_ == sorted(words_)  # lexicographic within the block
                assert all(words.grade_of(w) == b.grade for w in words_)
        # the row blocks of d_k are the column blocks of d_(k-1)
        assert sum(b.rows for b in blocks) == alg.dim ** (k - 1)


@pytest.mark.parametrize("pq, split", _cases([(2, 2), (3, 1), (4, 0)], [(2, 2), (3, 1)]))
def test_grade_block_ranks_match_full_matrix(pq, split):
    # the sum of the block ranks is the exact rank of the materialized d_k;
    # a split form's complex is isomorphic to the standard one
    h = build_affine(Signature(*pq))
    alg = split_form(h) if split else h
    op = LodayBoundary(alg)
    for k in (2, 3):
        rank = exact_rank(full_boundary(op, k))
        assert _rank_blocks(op.blocks(k)) == rank
        assert rank == exact_rank(full_boundary(LodayBoundary(h), k))


def _bracket_word_boundary(algebra, word):
    """The Loday boundary of one word as it read the brackets before the
    bracket table: ``algebra.bracket`` for every pair of positions."""
    out = {}
    for j in range(1, len(word)):
        sign = -1 if (j + 1) % 2 else 1
        rest = word[:j] + word[j + 1 :]
        for i in range(j):
            for c, s in algebra.bracket(word[i], word[j]).items():
                liealg.accumulate(out, rest[:i] + (c,) + rest[i + 1 :], sign * s)
    return out


def _reduce_then_rank_column(block, algebra, j):
    """Column j of ``block`` by the word route: the boundary of its word,
    reduced to orbit representatives on an orbit block (each word to ± its
    representative by ``canonical``, dropped orbits left out), then each
    word ranked by ``rank_word`` and the pairs sorted."""
    out = _bracket_word_boundary(algebra, block.colspace.unrank_word(j))
    if isinstance(block.rowspace, OrbitBlock):
        reduced = {}
        for w, v in out.items():
            hit = block.rowspace.canonical(w)
            if hit is not None:
                liealg.accumulate(reduced, hit[0], hit[1] * v)
        out = reduced
    return sorted((block.rowspace.rank_word(w), v) for w, v in out.items())


def _fraction_extension():
    """The abelian extension with [g, m] = m/2 of ``test_homology``'s
    ``test_fraction_constants_keep_modular_rank``."""
    return build_abelian_extension(build_abelian(1), [[[Fraction(1, 2)]]], m_dim=1)


def _oracle_cases():
    reduced = [((2, 2), 5), ((3, 1), 5), ((4, 0), 5), ((2, 3), 4), ((3, 3), 4)]
    cases = [pytest.param(pq, degree, id=f"{pq[0]}_{pq[1]}") for pq, degree in reduced]
    return cases + [pytest.param("full_2_2", 4, id="full_2_2"), pytest.param("fraction", 4, id="fraction")]


@pytest.mark.parametrize("case, degree", _oracle_cases())
def test_columns_match_bracket_route(case, degree, full_route):
    # the bracket table and the one-pass orbit column against the word route
    # they replace, column for column: every kept orbit block of the reduced
    # complexes, every grade block of the sig=None copy of h(2,2), and the
    # extension with a Fraction constant
    if case == "full_2_2":
        op = LodayBoundary(full_route(build_affine(Signature(2, 2))))
    elif case == "fraction":
        op = LodayBoundary(_fraction_extension())
    else:
        red = split_reduction(build_affine(Signature(*case)))
        op = LodayBoundary(red.algebra, keep=red.grades, symmetries=red.symmetries)
    alg = op.algebra
    checked = 0
    for k in range(2, degree + 1):
        for block in op.blocks(k):
            for j in range(block.cols):
                word = block.colspace.unrank_word(j)
                assert op.word_boundary(word) == _bracket_word_boundary(alg, word), word
                assert block.column(j) == _reduce_then_rank_column(block, alg, j), (k, block.grade, j)
                checked += 1
    assert checked == sum(op.dim(k) for k in range(2, degree + 1))
    if case == "fraction":
        assert any(type(v) is Fraction for b in op.blocks(2) for col in b.columns() for _, v in col)


def test_boundary_reads_the_structure_once_when_built():
    # a boundary keeps the constants its algebra had when it was built: one
    # on a copy mutated as the demo does sees the new constant, one built on
    # the original, or on the copy before the change, keeps the old one
    h = build_affine(Signature(2, 2))
    x12 = h.index(RotationX(1, 2))
    word = (0, x12)
    old = {(c,): v for c, v in h.bracket(0, x12).items()}
    assert old == {(1,): -1}  # [d(1), X(1,2)] = -d(2)
    assert LodayBoundary(h).word_boundary(word) == old
    bad = h.copy()
    before = LodayBoundary(bad)
    bad.structure[(0, x12)][1] = 5
    assert LodayBoundary(bad).word_boundary(word) == {(1,): 5}
    assert before.word_boundary(word) == old
    assert LodayBoundary(h).word_boundary(word) == old


def test_ce_blocks_are_whole_chain_spaces(h22):
    # one block per CE degree, columns the boundaries of the basis words
    ce = CEBoundary(h22, range(h22.dim), h22.translation_indices)
    for op in (ce, WedgeBoundary(h22, range(h22.dim))):
        assert op.blocks(0) == []
        for k in (1, 2):
            (block,) = op.blocks(k)
            assert block.grade is None
            assert (block.rows, block.cols) == (op.space(k - 1).dim, op.space(k).dim)
            for j in range(block.cols):
                sp = op.space(k)
                image = op.apply(sp.basis_chain(sp.unrank_word(j)))
                want = sorted((op.space(k - 1).rank_word(w), c) for w, c in image.coeffs.items())
                assert block.column(j) == want


def test_ce_boundary_example(h31):
    ce = CEBoundary(h31, range(h31.dim), h31.translation_indices)
    sp = ce.space(1)
    c = sp.basis_chain((h31.index(RotationX(1, 2)), t(h31, 1)))
    out = ce.apply(c)
    assert out == ce.space(0).basis_chain((t(h31, 2),), -1)  # -[X12, d1] = -d2


def test_ce_abelian_second_sum_vanishes(h22, rng):
    # over the abelian translations the bracket sum contributes nothing:
    # the boundary of I-lead words with I-wedge tails is the action sum only
    ce = CEBoundary(h22, range(h22.dim), h22.translation_indices)
    check_dd_zero(ce, range(2, 5), rng)


def test_ce_invalid_module_names_pair(h22):
    with pytest.raises(ModuleLawError) as exc:
        CEBoundary(h22, h22.so_indices, h22.translation_indices)  # so is not closed under translations
    assert len(exc.value.pair) == 2


def test_antisymmetrization_intertwines(h22, rng):
    # projection to the wedge power turns the Loday boundary into minus the
    # trivial-coefficient CE boundary
    op = LodayBoundary(h22)
    wedge = WedgeBoundary(h22, range(h22.dim))
    for k in (2, 3, 4):
        sp = tensor_space(h22, k)
        for _ in range(25):
            c = random_chain(sp, rng)
            lhs = tensor_to_wedge(op.apply(c))
            rhs = wedge.apply(tensor_to_wedge(c))
            assert (lhs + rhs).is_zero()


def test_gamma_bar_and_tilde_are_cycles(sig4):
    sign, _ = resolve_gamma_tilde_sign(sig4)
    gb = make_gamma_bar(sig4)
    gt = make_gamma_tilde(sig4, sign)
    assert is_cycle(gb)
    assert is_cycle(gt)


def test_gamma_homologous_witness(sig4):
    sign, _ = resolve_gamma_tilde_sign(sig4)
    diff = make_gamma_tilde(sig4, sign) - make_gamma_bar(sig4)
    witness = is_boundary(diff)
    assert witness is not None
    # re-check is internal, but assert the witness degree is right
    assert witness.space.degree == sig4.n


def test_alpha_tilde_not_boundary(sig4):
    at = make_alpha_tilde(sig4)
    assert is_cycle(at)
    assert is_boundary(at) is None


def test_rho_embedding_not_cycle(sig4):
    rho = make_rho(sig4)
    emb = embed_mixed_in_tensor(rho)
    # half-sum antisymmetrization: X ⊗ a∧b -> X ⊗ (a⊗b - b⊗a)/2
    some_word = next(iter(emb.coeffs))
    assert abs(emb.coeffs[some_word]) == Fraction(1, 2)
    assert not is_cycle(emb)


def test_block_solve_matches_materialized_matrix(sig22):
    # solve reads a grade block through its streamed columns; the same
    # columns listed first must give the same witness (or None)
    sign, _ = resolve_gamma_tilde_sign(sig22)
    diff = make_gamma_tilde(sig22, sign) - make_gamma_bar(sig22)
    alg = diff.space.algebra
    words = graded_words(alg.grades)
    blocks = {b.grade: b for b in LodayBoundary(alg).blocks(diff.space.degree + 1)}
    by_grade: dict[tuple[int, int], dict] = {}
    for w, c in diff.coeffs.items():
        by_grade.setdefault(words.grade_of(w), {})[w] = c
    for g, coeffs in by_grade.items():
        block = blocks[g]
        listed = list(block.columns())
        b = {block.rowspace.rank_word(w): c for w, c in coeffs.items()}
        x = solve(block.rows, block.columns(), b)
        assert x is not None and x == solve(block.rows, listed, b)
        assert solve(block.rows, block.columns(), {0: 1}) == solve(block.rows, listed, {0: 1})


def test_is_boundary_zero_chain(h22):
    z = tensor_space(h22, 3).zero()
    w = is_boundary(z)
    assert w is not None and w.is_zero()


def test_is_boundary_cap_default_follows_library():
    import inspect

    from leibniz_homology import homology, linalg

    assert homology.DEFAULT_CAP_EXACT is linalg.DEFAULT_CAP_EXACT
    assert inspect.signature(is_boundary).parameters["cap_exact"].default == linalg.DEFAULT_CAP_EXACT


def test_wedge_is_cycle_dispatch(h22):
    # the volume wedge is a cycle of the trivial-coefficient CE complex
    from leibniz_homology import make_alpha

    assert is_cycle(make_alpha(Signature(2, 2)))


def test_is_boundary_negative_cap_is_value_error(h22):
    # as in HomologyOptions: a negative cap is a usage error, also on a zero chain
    at = make_alpha_tilde(Signature(2, 2))
    for chain in (at, tensor_space(h22, 3).zero()):
        with pytest.raises(ValueError, match="cap_exact must be >= 0"):
            is_boundary(chain, cap_exact=-1)


def _rehomed(chain, alg):
    """``chain`` as a chain of the same words in the tensor space of ``alg``."""
    return Chain(tensor_space(alg, chain.space.degree), dict(chain.coeffs))


def _by_grade(chain):
    words = graded_words(chain.space.algebra.grades)
    out = {}
    for w, c in chain.coeffs.items():
        out.setdefault(words.grade_of(w), {})[w] = c
    return out


def _assert_routes_agree(chain, full_route, group_order):
    """The orbit route on ``chain`` and the plain grade-block route on its
    copy in a ``sig=None`` algebra agree on feasibility; every witness is
    checked against d here too.  Returns whether ``chain`` is a boundary."""
    alg = chain.space.algebra
    symmetries = chain_symmetries(alg, _by_grade(chain))
    assert symmetries is not None and len(symmetries) == group_order
    assert symmetries[0] == (tuple(range(alg.dim)), (1,) * alg.dim)
    full = _rehomed(chain, full_route(alg))
    assert chain_symmetries(full.space.algebra, _by_grade(full)) is None
    witnesses = [is_boundary(chain), is_boundary(full)]
    assert (witnesses[0] is None) == (witnesses[1] is None)
    for c, w in zip((chain, full), witnesses):
        if w is not None:
            assert LodayBoundary(c.space.algebra).apply(w) == c
    return witnesses[0] is not None


# the letter permutations of SO(p)×SO(q) among the signed permutations
ROTATION_PERMS = {(2, 2): 4, (3, 1): 6, (1, 3): 6, (4, 0): 24}


@pytest.mark.parametrize("pq", list(ROTATION_PERMS), ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_orbit_route_matches_plain_blocks_on_named_chains(pq, full_route):
    # both named chains are fixed by every rotation; the witness of
    # gamma~ - gamma_bar and the None of alpha~ agree with the plain route
    sig = Signature(*pq)
    sign, _ = resolve_gamma_tilde_sign(sig)
    diff = make_gamma_tilde(sig, sign) - make_gamma_bar(sig)
    assert _assert_routes_agree(diff, full_route, ROTATION_PERMS[pq])
    assert not _assert_routes_agree(make_alpha_tilde(sig), full_route, ROTATION_PERMS[pq])


def _fraction_sign_on(perm, signs, chain):
    """The Fraction scan that ``rotations._sign_on`` replaces: t with
    (perm, signs) mapping ``chain`` to t·chain, 0 for the empty chain, None
    for neither ±chain."""
    out = 0
    for w, c in chain.items():
        image = chain.get(tuple(map(perm.__getitem__, w)))
        v = c if math.prod(map(signs.__getitem__, w)) == 1 else -c
        t = 1 if image == v else -1 if image == -v else None
        if t is None or t != (out or t):
            return None
        out = t
    return out


@pytest.mark.parametrize("pq", [(2, 2), (3, 1), (4, 0)], ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_sign_scan_matches_the_fraction_scan(pq, rng):
    # every element of the rotation group, with its letter signs flipped on
    # the letters of one parity bit too, on the named chains, their Fraction
    # multiples, chains w ± g·w and random chains of one grade block
    sig = Signature(*pq)
    h = build_affine(sig)
    group = rotations.symmetry_group(h, rotations._standard_table(sig.n), {})
    flipped = [
        (perm, tuple(-s if g[-1] & 1 else s for s, g in zip(signs, h.grades))) for perm, signs in group
    ]
    sign, _ = resolve_gamma_tilde_sign(sig)
    named = [make_gamma_tilde(sig, sign) - make_gamma_bar(sig), make_alpha_tilde(sig)]
    chains = [{}] + [dict(c.coeffs) for c in named] + [dict((Fraction(-5, 6) * c).coeffs) for c in named]
    words = graded_words(h.grades)
    block = GradeBlock(words, 4, max(words.grades_of_length(4), key=lambda g: words.count(4, g)))
    for perm, signs in group:
        w = block.unrank_word(rng.randrange(block.dim))
        image = tuple(perm[a] for a in w)
        for t in (1, -1):
            chain = {w: Fraction(1, 3)}
            liealg.accumulate(chain, image, t * math.prod(signs[a] for a in w) * Fraction(1, 3))
            chains.append(chain)
    for _ in range(10):
        picked = [block.unrank_word(rng.randrange(block.dim)) for _ in range(3)]
        chains.append({w: Fraction(rng.randint(1, 9), 7) for w in picked})
    scaled = [rotations._scaled(c) for c in chains]
    got = [[rotations._sign_on(perm, signs, *sc) for sc in scaled] for perm, signs in group + flipped]
    assert got == [[_fraction_sign_on(perm, signs, c) for c in chains] for perm, signs in group + flipped]
    assert {t for row in got for t in row} == {1, -1, 0, None}


# (order, sha256 prefix of the repr) of the chain_symmetries groups of
# gamma~ - gamma_bar and of alpha~ at n = 4, 5 and 6, pinned from the
# Fraction scan
NAMED_CHAIN_GROUPS = {
    (2, 2): ((4, "0e88a3b446f92e65"), (4, "0e88a3b446f92e65")),
    (3, 1): ((6, "42be55058a6ec2c6"), (6, "42be55058a6ec2c6")),
    (5, 0): ((120, "b2fda3a2df26047d"), (120, "b2fda3a2df26047d")),
    (3, 2): ((12, "2162dc2f9a3e48db"), (12, "2162dc2f9a3e48db")),
    (6, 0): ((720, "ba5731edeb7416fd"), (720, "ba5731edeb7416fd")),
    (3, 3): ((36, "3cdf05193e3b4991"), (36, "3cdf05193e3b4991")),
}


@pytest.mark.parametrize("pq", list(NAMED_CHAIN_GROUPS), ids=lambda pq: f"{pq[0]}_{pq[1]}")
def test_named_chain_stabilisers_are_pinned(pq, monkeypatch):
    sig = Signature(*pq)
    sign, _ = resolve_gamma_tilde_sign(sig)
    chains = [make_gamma_tilde(sig, sign) - make_gamma_bar(sig), make_alpha_tilde(sig)]
    groups = [chain_symmetries(c.space.algebra, _by_grade(c)) for c in chains]
    pins = [(len(g), hashlib.sha256(repr(g).encode()).hexdigest()[:16]) for g in groups]
    assert pins == list(NAMED_CHAIN_GROUPS[pq])
    if sig.n < 6:  # the same groups from the Fraction scan
        monkeypatch.setattr(rotations, "_scaled", lambda chain: (chain,))
        monkeypatch.setattr(rotations, "_sign_on", _fraction_sign_on)
        assert [chain_symmetries(c.space.algebra, _by_grade(c)) for c in chains] == groups


def test_one_letter_action_per_group_element(monkeypatch):
    # the group builder skips an index map once it has a kept action, so it
    # builds one letter action per element: for the split orbit groups and
    # for the stabilisers of the named chains
    calls = []

    def counted(alg, moved):
        calls.append(moved)
        return letter_action(alg, moved)

    monkeypatch.setattr(rotations, "letter_action", counted)
    for pq, order in [((2, 2), 4), ((3, 3), 24), ((4, 0), 24)]:
        calls.clear()
        group = split._split_reduction.__wrapped__(Signature(*pq), True).symmetries
        assert len(calls) == len(group) == order, pq
    for pq in [(2, 2), (3, 1)]:
        sig = Signature(*pq)
        sign, _ = resolve_gamma_tilde_sign(sig)
        for chain in (make_gamma_tilde(sig, sign) - make_gamma_bar(sig), make_alpha_tilde(sig)):
            calls.clear()
            group = chain_symmetries(chain.space.algebra, _by_grade(chain))
            assert len(calls) == len(group) == ROTATION_PERMS[pq], pq


def test_trivial_stabiliser_takes_one_letter_action_per_index_map(monkeypatch, rng):
    # a boundary fixed by the identity alone: each index map takes the one
    # letter action of its first sign vector, and its other sign vectors
    # are flips read off that action's image of the chain; trying each
    # took 13, 21 and 185 letter actions
    calls = []

    def counted(alg, moved):
        calls.append(moved)
        return letter_action(alg, moved)

    monkeypatch.setattr(rotations, "letter_action", counted)
    for pq in [(2, 2), (3, 1), (4, 0)]:
        h = build_affine(Signature(*pq))
        c = LodayBoundary(h).apply(random_chain(tensor_space(h, 4), rng))
        calls.clear()
        assert chain_symmetries(h, _by_grade(c)) is None
        assert len(calls) == math.factorial(pq[0]) * math.factorial(pq[1]), pq


def _half_turn_sum(alg, word):
    """word + g·word for g: e1 -> -e2, e2 -> e1, e3 -> -e4, e4 -> e3 at
    (2,2); g² = -I is +1 on the words of parity 1111, so the sum is
    fixed by g."""
    perm, signs = letter_action(alg, [(1, -1), (0, 1), (3, -1), (2, 1)])
    image = tuple(perm[a] for a in word)
    sign = math.prod(signs[a] for a in word)
    return Chain(tensor_space(alg, len(word)), {word: Fraction(1)}) + Chain(
        tensor_space(alg, len(word)), {image: Fraction(sign)}
    )


def test_orbit_route_matches_plain_blocks_on_partial_stabilisers(h22, full_route):
    words = graded_words(h22.grades)
    op = LodayBoundary(h22)
    # a boundary fixed by a proper subgroup of the four letter permutations
    x = _half_turn_sum(h22, GradeBlock(words, 4, (2, 15)).unrank_word(5))
    c = op.apply(x)
    assert not c.is_zero()
    assert _assert_routes_agree(c, full_route, 2)
    # a cycle that is no boundary, with the same partial stabiliser
    block = GradeBlock(words, 5, (4, 15))
    images = (op.apply(_half_turn_sum(h22, block.unrank_word(j))) for j in range(block.dim))
    dy = next(d for d in images if not d.is_zero())
    c = make_alpha_tilde(Signature(2, 2)) + dy
    assert is_cycle(c)
    assert not _assert_routes_agree(c, full_route, 2)


def test_boundary_with_trivial_stabiliser_solves_on_plain_blocks(h22, rng):
    x = random_chain(tensor_space(h22, 4), rng)
    c = LodayBoundary(h22).apply(x)
    assert chain_symmetries(h22, _by_grade(c)) is None
    w = is_boundary(c)
    assert w is not None and LodayBoundary(h22).apply(w) == c


@pytest.mark.parametrize("sig", [Signature(2, 2), Signature(3, 1)], ids=str)
def test_is_boundary_builds_one_block_per_chain_grade(monkeypatch, rng, sig):
    # is_boundary names its chain's grades: one block each, sorted, and no
    # block of a grade the chain lacks
    h = build_affine(sig)
    built = []
    blocks = LodayBoundary.blocks
    monkeypatch.setattr(LodayBoundary, "blocks", lambda op, k: built.append(blocks(op, k)) or built[-1])
    c = LodayBoundary(h).apply(random_chain(tensor_space(h, 4), rng))
    for chain, boundary in [(c, True), (make_alpha_tilde(sig), False)]:
        built.clear()
        assert (is_boundary(chain) is not None) == boundary
        assert [[b.grade for b in out] for out in built] == [sorted(_by_grade(chain))]
    assert len(_by_grade(c)) > 1


def _flip_first_letter(monkeypatch):
    """Patch the letter action ``rotations`` calls to negate the first letter."""

    def wrong(alg, moved):
        letters, letter_signs = letter_action(alg, moved)
        return letters, (-letter_signs[0],) + letter_signs[1:]

    monkeypatch.setattr(rotations, "letter_action", wrong)


def test_wrong_letter_sign_is_no_automorphism(monkeypatch):
    _flip_first_letter(monkeypatch)
    with pytest.raises(ValueError, match="is no automorphism"):
        split._split_reduction.__wrapped__(Signature(2, 2), True)
    with pytest.raises(ValueError, match="is no automorphism"):
        is_boundary(make_alpha_tilde(Signature(2, 2)))


def test_letter_action_check_survives_optimisation(run_python):
    # the automorphism check raises, so python -O does not strip it
    code = (
        "import sys\n"
        "import pytest\n"
        "from leibniz_homology import Signature, is_boundary, make_alpha_tilde\n"
        "from leibniz_homology.split import _split_reduction\n"
        "from test_complexes import _flip_first_letter\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "with pytest.MonkeyPatch.context() as mp:\n"
        "    _flip_first_letter(mp)\n"
        "    for route in (lambda: _split_reduction.__wrapped__(Signature(2, 2), True),\n"
        "                  lambda: is_boundary(make_alpha_tilde(Signature(2, 2)))):\n"
        "        try:\n"
        "            route()\n"
        "        except ValueError as exc:\n"
        "            print(exc)\n"
        "        else:\n"
        "            sys.exit('a wrong letter sign passed')\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("is no automorphism") == 2


def test_letter_action_that_moves_a_grade_is_rejected(monkeypatch):
    # every map but the identity sends the first letter where the true
    # action sends the second: d(b_0) and d(b_1) differ in grade on the
    # split form, d(1) and d(2) in parity on the standard basis
    def swap_first_letters(alg, moved):
        letters, letter_signs = letter_action(alg, moved)
        if any(k != k2 for k, (k2, _) in enumerate(moved)):
            letters = (letters[1], letters[0]) + letters[2:]
        return letters, letter_signs

    monkeypatch.setattr(rotations, "letter_action", swap_first_letters)
    with pytest.raises(ValueError, match=r"moves the grade of d\(1\)\+d\(3\)"):
        split._split_reduction.__wrapped__(Signature(2, 2), True)
    # only the identity fixes the parity 0101 of Y(1,3), so the raise shows
    # that each letter action is checked before the chain filters it out
    h = build_affine(Signature(2, 2))
    y13 = Chain(tensor_space(h, 1), {(h.index(BoostY(1, 3)),): Fraction(1)})
    with pytest.raises(ValueError, match=r"moves the grade of d\(1\)"):
        is_boundary(y13)
