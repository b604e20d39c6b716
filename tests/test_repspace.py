"""Word enumeration, rank/unrank, actions, canonicalization."""

import math
import re
from fractions import Fraction

import pytest

from leibniz_homology import (
    BoostY,
    Chain,
    RotationX,
    Signature,
    SpaceMismatchError,
    Translation,
    act,
    assemble_action,
    build_abelian,
    build_abelian_extension,
    build_affine,
    build_so,
    mixed_space,
    random_chain,
    sort_wedge,
    standard_translation_action,
    tensor_space,
    wedge_space,
)
from leibniz_homology.complexes import LodayBoundary
from leibniz_homology.linalg import _image
from leibniz_homology.repspace import PREFIX, GradeBlock, GradedWords, OrbitBlock, graded_words
from leibniz_homology.split import split_reduction


def t(h, i):
    return h.index(Translation(i))


def test_basis_counts(h22):
    assert tensor_space(h22, 3).dim == 1000
    assert wedge_space(h22, 2).dim == 6
    assert mixed_space(h22, 2, lead=range(h22.dim)).dim == 60
    assert wedge_space(h22, 5).dim == 0  # k > d is empty, not an error
    assert tensor_space(h22, 0).dim == 1


def test_rank_unrank_roundtrip_exhaustive(h22):
    spaces = [
        tensor_space(h22, 3),
        wedge_space(h22, 3),
        mixed_space(h22, 2, lead=h22.so_indices),
        mixed_space(h22, 4, lead=range(h22.dim)),
    ]
    for sp in spaces:
        words = list(sp.words())
        assert len(words) == sp.dim
        for r, w in enumerate(words):
            assert sp.rank_word(w) == r
            assert sp.unrank_word(r) == w


def test_rank_unrank_sampled_large(h22, rng):
    sp = tensor_space(h22, 6)  # 10^6 words
    assert sp.dim == 10**6
    for _ in range(2000):
        r = rng.randrange(sp.dim)
        assert sp.rank_word(sp.unrank_word(r)) == r


def test_sort_wedge_signs():
    assert sort_wedge((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_wedge((2, 1, 3)) == ((1, 2, 3), -1)
    assert sort_wedge((3, 2, 1)) == ((1, 2, 3), -1)
    assert sort_wedge((1, 1, 3))[1] == 0


def test_act_wedge_examples(h22):
    sp = wedge_space(h22, 2)
    c = sp.basis_chain((t(h22, 1), t(h22, 2)))
    out = act(h22.index(BoostY(1, 3)), c)
    assert out == Chain(sp, {(t(h22, 2), t(h22, 3)): Fraction(-1)})
    # translations act as zero on translation wedges
    assert act(t(h22, 3), c).is_zero()
    # the volume wedge is killed by every rotation
    vol = wedge_space(h22, 4).basis_chain(tuple(t(h22, i) for i in (1, 2, 3, 4)))
    assert act(h22.index(RotationX(1, 2)), vol).is_zero()


def test_act_mixed_example(h31):
    sp = mixed_space(h31, 2, lead=h31.so_indices)
    x12 = h31.index(RotationX(1, 2))
    c = sp.basis_chain((x12, t(h31, 1), t(h31, 2)))
    assert act(x12, c).is_zero()


def test_act_tensor_examples(h22, h31):
    sp = tensor_space(h22, 2)
    c = sp.basis_chain((t(h22, 1), t(h22, 1)))
    out = act(h22.index(RotationX(1, 2)), c)
    assert out == Chain(
        sp,
        {
            (t(h22, 2), t(h22, 1)): Fraction(-1),
            (t(h22, 1), t(h22, 2)): Fraction(-1),
        },
    )
    # translations kill translation-only tensors
    assert act(t(h22, 3), c).is_zero()


def test_space_escape_raises(h22):
    # acting on an so-lead space by a translation pushes the lead out of so
    sp = mixed_space(h22, 1, lead=h22.so_indices)
    c = sp.basis_chain((h22.index(RotationX(1, 2)), t(h22, 3)))
    with pytest.raises(SpaceMismatchError):
        act(t(h22, 1), c)


@pytest.mark.parametrize("make, message", [
    (lambda h: tensor_space(h, 2, factors=[0, 0]), "factor index 0 repeats or lies outside range(10)"),
    (lambda h: wedge_space(h, 2, factors=[0, 0]), "factor index 0 repeats or lies outside range(10)"),
    (lambda h: mixed_space(h, 1, lead=(4, 4)), "lead index 4 repeats or lies outside range(10)"),
    (lambda h: tensor_space(h, 1, factors=[99]), "factor index 99 repeats or lies outside range(10)"),
    (lambda h: wedge_space(h, 1, factors=[-1]), "factor index -1 repeats or lies outside range(10)"),
    (lambda h: mixed_space(h, 1, lead=(10,)), "lead index 10 repeats or lies outside range(10)"),
], ids=["tensor-repeat", "wedge-repeat", "lead-repeat", "tensor-range", "wedge-range", "lead-range"])
def test_space_rejects_repeated_or_foreign_indices(h22, make, message):
    # a repeated index gives two positions to one letter and an index past
    # the algebra names no letter: either indexes the space wrongly
    with pytest.raises(ValueError, match=re.escape(message)):
        make(h22)


def test_space_rejects_wedge_factors_out_of_order(h22):
    # a wedge tail is ranked by the colex rank of its factor positions, so
    # factors [3, 1, 2] would unrank (3, 1) and rank the stored (1, 3) as
    # the index of (3, 2); a tensor space and a mixed space's lead take any order
    for make in (lambda: wedge_space(h22, 2, factors=[3, 1, 2]),
                 lambda: mixed_space(h22, 1, lead=(0,), factors=[2, 1])):
        with pytest.raises(ValueError, match="do not ascend"):
            make()
    assert tensor_space(h22, 2, factors=[3, 1, 2]).unrank_word(1) == (3, 1)
    sp = mixed_space(h22, 1, lead=(5, 4), factors=[1, 3])
    assert [sp.rank_word(sp.unrank_word(r)) for r in range(sp.dim)] == list(range(sp.dim))
    sp = wedge_space(h22, 2, factors=[1, 2, 3])
    assert all(sort_wedge(w) == (w, 1) for w in sp.words())


def test_module_law_on_random_chains(h22, rng):
    # act(x, m) = [m, x] is a right action: acting by a then b, minus b then
    # a, equals acting by [b, a].
    for sp in (tensor_space(h22, 3), wedge_space(h22, 3)):
        for _ in range(25):
            a = rng.randrange(h22.dim)
            b = rng.randrange(h22.dim)
            if sp.kind == "wedge":
                a, b = rng.choice(h22.so_indices), rng.choice(h22.so_indices)
            ch = random_chain(sp, rng)
            lhs = act(a, act(b, ch)) - act(b, act(a, ch))
            rhs = sp.zero()
            for c, s in h22.bracket(b, a).items():
                rhs = rhs + s * act(c, ch)
            assert lhs == rhs


def test_canonicalization_order_independent(h22, rng):
    # expanding the derivation on a permuted word and canonicalizing at the
    # end agrees with acting on the canonical representative
    sp = wedge_space(h22, 3)
    for _ in range(40):
        word = tuple(rng.sample(range(4), 3))
        canon, sgn = sort_wedge(word)
        x = rng.choice(h22.so_indices)
        direct = act(x, sp.basis_chain(canon, sgn))
        acc = sp.zero()
        for pos in range(3):
            for c, s in h22.bracket(word[pos], x).items():
                w2, s2 = sort_wedge(word[:pos] + (c,) + word[pos + 1 :])
                if s2:
                    acc = acc + (s * s2) * sp.basis_chain(w2)
        assert acc == direct


def test_assembled_matrix_agrees_with_matrix_free(h22, rng):
    sp = mixed_space(h22, 2, lead=h22.so_indices)
    for x in h22.so_indices[:3]:
        columns = assemble_action(sp, x)
        assert all(col == sorted(col) for col in columns)
        for _ in range(10):
            ch = random_chain(sp, rng)
            vec = {sp.rank_word(w): c for w, c in ch.coeffs.items()}
            image = _image(columns, vec)
            direct = {sp.rank_word(w): c for w, c in act(x, ch).coeffs.items()}
            assert image == direct


def test_chain_arithmetic(h22):
    sp = wedge_space(h22, 2)
    a = sp.basis_chain((0, 1), 2)
    b = sp.basis_chain((0, 1), -2)
    assert (a + b).is_zero()
    assert (Fraction(1, 2) * a).coeffs == {(0, 1): Fraction(1)}
    assert Fraction(1, 3) * a != a


def test_chain_coefficients_are_exact(h22):
    # a float would be stored as its binary fraction without a word
    sp = wedge_space(h22, 2)
    for make in (lambda: Chain(sp, {(0, 1): 0.1}), lambda: sp.basis_chain((0, 1), 0.1)):
        with pytest.raises(ValueError, match=r"coefficient of word \(0, 1\) is 0\.1, not an int or a Fraction"):
            make()
    with pytest.raises(ValueError, match=r"scalar 0\.1 is not an int or a Fraction"):
        0.1 * sp.basis_chain((0, 1))
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        Chain(sp, {(0, 1): 0.0})  # refused even where it would be dropped as zero
    assert Chain(sp, {(0, 1): 3, (0, 2): Fraction(1, 2), (1, 2): 0}).coeffs == {
        (0, 1): Fraction(3), (0, 2): Fraction(1, 2)}


def test_graded_words_keyed_by_grade_tuples():
    # weights of +-5000; 3 letters of each give weight 0 and parity 1 at
    # length 6, C(6, 3) words, and 4 of each parity 0 at length 8
    words = GradedWords([(0, 5000, 0), (0, -5000, 1)])
    assert words.count(6, (0, 0, 1)) == 20
    assert words.count(6, (0, 0, 0)) == 0
    assert words.count(8, (0, 0, 0)) == 70
    assert words.grades_of_length(2) == [(0, -10000, 0), (0, 0, 1), (0, 10000, 0)]
    # a grade no word can have counts 0, however large its fields
    words = GradedWords([(0, 1, 0), (1, 0, 1)])
    assert words.count(2, (0, 2, 0)) == 1
    assert words.count(2, (2 << 16, 0, 0)) == 0


def _gradings():
    sig = Signature(2, 2)
    split = {pq: split_reduction(build_affine(Signature(*pq))).algebra for pq in [(2, 2), (2, 3), (3, 3)]}
    extension = build_abelian_extension(build_so(sig), standard_translation_action(sig), m_dim=4)
    return [
        pytest.param(build_affine(sig).grades, 5, id="h22"),
        pytest.param(split[2, 2].grades, 5, id="split_2_2"),
        pytest.param(split[2, 3].grades, 5, id="split_2_3"),
        pytest.param(split[3, 3].grades, 4, id="split_3_3"),
        pytest.param(build_abelian(4).grades, 5, id="I4"),
        pytest.param(extension.grades, 5, id="extension"),
    ]


@pytest.mark.parametrize("grades, top", _gradings())
def test_counts_on_demand_match_full_table(grades, top):
    # the full table of every grade of every length is the old counting
    # route; a fresh index per length counts that length on demand, above
    # its half table, and must agree on every grade, zero grades included
    full = GradedWords(grades)
    full.grades_of_length(top)
    fields = range(len(grades[0]) - 1)
    ranges = [(min(g[i] for g in grades), max(g[i] for g in grades)) for i in fields]
    for length in range(top + 1):
        table = full._counts[length]
        assert sum(table.values()) == len(grades) ** length
        probes = set(table)
        for g in table:
            # every other parity, and each additive field one past its range
            probes |= {g[:-1] + (g[-1] ^ m,) for m in range(1 << 5)}
            for i, (lo, hi) in zip(fields, ranges):
                probes |= {g[:i] + (x,) + g[i + 1 :] for x in (length * lo - 1, length * hi + 1)}
        assert len(probes) > len(table)
        words = GradedWords(grades)
        for g in sorted(probes):
            assert words.count(length, g) == table.get(g, 0), (length, g)
        # lengths 2 and up are counted above the table
        assert (length < len(words._counts)) == (length < 2)


def test_reduced_route_counts_few_grades():
    # the kept blocks of the split h(3,3) through length 4 build the table
    # of every grade only to length 2 (132 grades) and the states they
    # reach above it: 173 states and 41 pairs found to have no words.  The
    # full table through length 4 forms 1,513 grades.
    red = split_reduction(build_affine(Signature(3, 3)))
    op = LodayBoundary(red.algebra, keep=red.grades, symmetries=red.symmetries)
    graded_words.cache_clear()
    for k in range(1, 5):
        for grade in op._grades(k):
            op.word_index(k, grade)
    words = graded_words(red.algebra.grades)
    graded_words.cache_clear()
    assert len(words._counts) == 3
    assert sum(map(len, words._counts)) + len(words._states) + len(words._empty) <= 400
    full = GradedWords(red.algebra.grades)
    full.grades_of_length(4)
    assert sum(map(len, full._counts)) > 400


def test_orbit_block_indexes_even_orbits():
    # a group of order 2 on three letters: 0 <-> 1 and 2 -> -2, listed with
    # the identity first and last, so that neither order is assumed
    words = GradedWords([(0, 0)] * 3)
    identity, swap = ((0, 1, 2), (1, 1, 1)), ((1, 0, 2), (1, 1, -1))
    for group in ([identity, swap], [swap, identity]):
        one = OrbitBlock(GradeBlock(words, 1, (0, 0)), group)
        # {0, 1} is an orbit; 2 is negated by its stabiliser, so its sum is 0
        assert one.dim == 1 and one.unrank_word(0) == (0,)
        assert one.canonical((1,)) == ((0,), 1) and one.canonical((2,)) is None
        two = OrbitBlock(GradeBlock(words, 2, (0, 0)), group)
        reps = [(0, 0), (0, 1), (0, 2), (2, 0), (2, 2)]
        assert [two.unrank_word(r) for r in range(two.dim)] == reps
        assert [two.rank_word(w) for w in reps] == list(range(5))
        assert two.canonical((1, 2)) == ((0, 2), -1)
        assert two.canonical((2, 1)) == ((2, 0), -1)
        assert two.canonical((1, 1)) == ((0, 0), 1)
        assert two.canonical((2, 2)) == ((2, 2), 1)
        # ranked sums the terms of one orbit with their signs, at the rank
        # of its representative
        assert two.ranked({(1, 2): 3, (0, 2): 3}) == []
        assert two.ranked({(2, 1): 2, (0, 0): 1, (1, 1): 1}) == [(0, 2), (3, -2)]
        # every word of the block is a signed image of its representative
        for w in map(GradeBlock(words, 2, (0, 0)).unrank_word, range(9)):
            rep, sign = two.canonical(w)
            assert any(
                tuple(perm[a] for a in w) == rep and sign == signs[w[0]] * signs[w[1]]
                for perm, signs in group
            )


def _brute_force_reps(block, group):
    """Every word of the block that every element maps to itself or above,
    and that no element fixing it negates."""
    reps = []
    for word in map(block.unrank_word, range(block.dim)):
        images = [(tuple(perm[a] for a in word), math.prod(signs[a] for a in word)) for perm, signs in group]
        if all(image > word or (image == word and sign > 0) for image, sign in images):
            reps.append(word)
    return reps


@pytest.mark.parametrize(
    "pq, top",
    [
        pytest.param(pq, top, id=f"{pq[0]}_{pq[1]}")
        for pq, top in [
            ((2, 2), 5), ((3, 1), 5), ((1, 3), 5), ((4, 0), 5), ((2, 3), 4), ((3, 3), 4), ((6, 0), 3),
        ]
    ],
)
def test_orbit_walk_matches_brute_force(pq, top):
    # the pruned walk finds the representatives of applying every element
    # to every word of every kept block, in the same order
    red = split_reduction(build_affine(Signature(*pq)))
    op = LodayBoundary(red.algebra, keep=red.grades, symmetries=red.symmetries)
    words = graded_words(red.algebra.grades)
    for k in range(1, top + 1):
        for grade in op._grades(k):
            reps = _brute_force_reps(GradeBlock(words, k, grade), red.symmetries)
            orbits = op.word_index(k, grade)
            assert [orbits.unrank_word(r) for r in range(orbits.dim)] == reps, (k, grade)


def _brute_force_canonical(word, group):
    """The least image of the word over the whole group, with the sign of
    the elements reaching it, or None when two of them differ in sign."""
    images = {}
    for perm, signs in group:
        image = tuple(perm[a] for a in word)
        images.setdefault(image, set()).add(math.prod(signs[a] for a in word))
    best = min(images)
    (sign,) = images[best] if len(images[best]) == 1 else (None,)
    return None if sign is None else (best, sign)


def _letter_by_letter(word, group):
    """The least image of the word by pruning the whole group letter by
    letter, the route before the prefix table: the oracle of
    ``OrbitGroup.survivors``."""
    survivors = group
    for a in word:
        if len(survivors) == 1:
            break
        least = min(perm[a] for perm, _ in survivors)
        survivors = [g for g in survivors if g[0][a] == least]
    perm, signs = survivors[0]
    sign = math.prod(signs[a] for a in word)
    if any(math.prod(s[a] for a in word) != sign for _, s in survivors[1:]):
        return None
    return tuple(perm[a] for a in word), sign


def _kept_words(pq, top):
    """The split reduction of h(p,q), its boundary and every (block, word)
    of its kept blocks through degree ``top``."""
    red = split_reduction(build_affine(Signature(*pq)))
    op = LodayBoundary(red.algebra, keep=red.grades, symmetries=red.symmetries)
    words = graded_words(red.algebra.grades)
    pairs = []
    for k in range(1, top + 1):
        for grade in op._grades(k):
            block = GradeBlock(words, k, grade)
            pairs += [(op.word_index(k, grade), w) for w in map(block.unrank_word, range(block.dim))]
    return red, op, pairs


@pytest.mark.parametrize(
    "pq, top",
    [pytest.param(pq, top, id=f"{pq[0]}_{pq[1]}") for pq, top in [
        ((2, 2), 4), ((4, 0), 4), ((3, 3), 4), ((2, 3), 5), ((6, 0), 3),
    ]],
)
def test_canonical_matches_brute_force(pq, top):
    # the survivors of a word, from the prefix table and pruned past it,
    # give the least image over the whole group and drop the same orbits,
    # on every word of every kept block
    red, _, pairs = _kept_words(pq, top)
    outcomes = set()
    for orbits, w in pairs:
        hit = orbits.canonical(w)
        assert hit == _brute_force_canonical(w, red.symmetries), w
        outcomes.add(None if hit is None else (hit[0] == w, hit[1]))
    # representatives and other words of both signs occur, and dropped
    # orbits when q > 0
    assert outcomes - {None} == {(True, 1), (False, 1), (False, -1)}
    assert (None in outcomes) == (pq[1] > 0)


@pytest.mark.parametrize(
    "pq, top",
    [pytest.param(pq, top, id=f"{pq[0]}_{pq[1]}") for pq, top in [((4, 0), 5), ((2, 3), 5), ((6, 0), 4)]],
)
def test_prefix_table_matches_letter_by_letter(pq, top):
    # every block of a boundary reads one table, bounded by its prefixes of
    # at most PREFIX letters; its survivors, pruned past the prefix, pick
    # the image that pruning the whole group letter by letter picks
    red, op, pairs = _kept_words(pq, top)
    group = op.symmetries
    assert all(orbits._group is group for orbits, _ in pairs)
    for orbits, w in pairs:
        assert orbits.canonical(w) == _letter_by_letter(w, red.symmetries), w
    assert max(map(len, group._prefixes)) == PREFIX < top
    assert len(group._prefixes) <= sum(red.algebra.dim**m for m in range(PREFIX + 1))


def test_empty_word_renders_as_one(h22):
    for space in (tensor_space(h22, 0), wedge_space(h22, 0)):
        assert str(space.basis_chain(())) == "(1)·1"
