"""Betti tables, predictions, duality, caps."""

import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from leibniz_homology import (
    BoostY,
    HomologyOptions,
    LieAlgebra,
    LodayBoundary,
    Signature,
    build_abelian,
    build_abelian_extension,
    build_affine,
    build_so,
    cohomology_dims,
    homology_dims,
    predicted_hl_dims,
    standard_translation_action,
)
from leibniz_homology import complexes, homology
from leibniz_homology.homology import DEFAULT_CAP_EXACT, _rank_blocks
from leibniz_homology.linalg import ExactEliminator, draw_primes
from leibniz_homology.repspace import GradeBlock, OrbitBlock, graded_words
from leibniz_homology.split import split_reduction


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


def test_h4_exact_through_degree_3(sig4, full_route):
    h = build_affine(sig4)
    rep = homology_dims(h, 3)
    assert rep.betti == [1, 0, 0, 1]
    assert rep.matches == [True, True, True, True]
    assert all(e.certification == "exact" for e in rep.entries)
    assert rep.reduction is not None
    # the full route (every grade block) as a cross-check
    full = homology_dims(full_route(h), 3)
    assert full.reduction is None and full.betti == rep.betti
    assert [e.dim for e in full.entries] == [10**k for k in range(4)]
    assert full.certificates[4].rank == 909


def test_rank_nullity_identity(sig4):
    rep = homology_dims(build_affine(sig4), 3)
    for e in rep.entries:
        assert e.dim == e.rank_d_k + e.rank_d_k1 + e.betti
        assert e.betti >= 0


def test_overreported_rank_raises(monkeypatch):
    # a rank larger than the chain space must stop the report, also under -O;
    # 10**9 is more than any chain space of the abelian algebra through degree 3
    monkeypatch.setattr(homology, "_rank_blocks", lambda blocks, *args, **kwargs: 10**9)
    with pytest.raises(RuntimeError, match="exceeds the dimension"):
        homology_dims(build_abelian(2), 2)


def test_negative_max_degree_raises():
    with pytest.raises(ValueError, match="max_degree must be at least 0, got -1"):
        homology_dims(build_abelian(2), -1)


def test_duality_flags():
    rep = homology_dims(build_abelian(2), 3)
    dual = cohomology_dims(rep)
    assert dual.variant == "cohomology"
    assert dual.betti == rep.betti
    assert [e.dim for e in dual.entries] == [e.dim for e in rep.entries]
    # the original report is untouched
    assert rep.variant == "homology"


def test_mode_exact_cap(full_route):
    # every rank is exact: a d_k past the cap ends the table
    h = build_affine(Signature(2, 2))
    opts = HomologyOptions(cap_exact=500)
    # the cap counts the ranked columns: 161 orbits at degree 4, 1,240 at degree 5
    rep = homology_dims(h, 4, options=opts)
    assert rep.capped_at == 5
    assert [e.degree for e in rep.entries] == [0, 1, 2, 3]
    rep = homology_dims(full_route(h), 3, options=opts)
    assert rep.capped_at == 3  # 1000 columns at degree 3 exceed the cap
    assert [e.degree for e in rep.entries] == [0, 1]


def test_mode_modular_small():
    # cap_exact=0 ends the table at the first d_k with columns, d_2 at (2,2)
    # (degree 1 has no orbit); the entries before it are exact.  A rank mod
    # one prime, the engines' cross-check, agrees with the exact one here
    h = build_affine(Signature(2, 2))
    rep = homology_dims(h, 2, options=HomologyOptions(cap_exact=0))
    assert rep.capped_at == 2 and rep.betti == [1]
    assert rep.entries[0].certification == "exact"
    assert rep.cap_message == "degree 2: 5 columns exceed the exact cap 0"
    blocks = _reduced_h22().blocks(3)
    (p,) = draw_primes(random.Random(0), 1)
    assert _rank_blocks(blocks, p) == _rank_blocks(blocks) == homology_dims(h, 2).certificates[3].rank


def test_ce_homology_of_translations():
    # H(h ⊗ Λ* I) for the affine algebra: small exact computation runs clean
    h = build_affine(Signature(2, 2))
    rep = homology_dims(h, 3, kind="ce")
    assert [e.dim for e in rep.entries] == [10, 40, 60, 40]
    assert rep.predicted is None  # the predicted series is for Loday homology
    for e in rep.entries:
        assert e.dim == e.rank_d_k + e.rank_d_k1 + e.betti


def test_ce_homology_abelian():
    # graded algebras use the whole algebra as coefficients: I_2 ⊗ Λ^k I_2
    # with zero boundary, dimensions 2·C(2,k)
    rep = homology_dims(build_abelian(2), 2, kind="ce")
    assert rep.betti == [2, 4, 2]
    assert [e.dim for e in rep.entries] == [2, 4, 2]


def test_ce_homology_semisimple_trivial_coefficients():
    # algebras without translations fall back to trivial coefficients: the
    # classical Lie homology of so(2,1) (three-dimensional simple) is 1, 0, 0, 1
    rep = homology_dims(build_so(Signature(2, 1)), 3, kind="ce")
    assert rep.betti == [1, 0, 0, 1]


def test_ce_cap_gives_modular_entry_or_partial_report():
    # the CE complex has the one cap too: within it every entry is exact;
    # 10 * C(4,2) = 60 columns of the CE d_2 exceed a cap of 50, and the
    # table stops there
    h = build_affine(Signature(2, 2))
    rep = homology_dims(h, 3, kind="ce")
    assert rep.betti == [6, 20, 20, 10]
    assert [e.certification for e in rep.entries] == ["exact"] * 4
    assert rep.certificates[2].method == "exact"
    rep = homology_dims(h, 3, kind="ce", options=HomologyOptions(cap_exact=50))
    assert rep.capped_at == 2 and [e.betti for e in rep.entries] == [6]


def test_fraction_constants_keep_modular_rank():
    # [g, m] = m/2: neither engine may truncate 1/2 to 0
    ext = build_abelian_extension(build_abelian(1), [[[Fraction(1, 2)]]], m_dim=1)
    exact = homology_dims(ext, 3)
    assert exact.betti == [1, 1, 1, 1]
    assert [exact.certificates[k].rank for k in (2, 3, 4)] == [1, 2, 5]
    op = LodayBoundary(ext)
    (p,) = draw_primes(random.Random(0), 1)
    assert [_rank_blocks(op.blocks(k), p) for k in (2, 3, 4)] == [1, 2, 5]


def test_prediction_only_for_affine_gradings():
    # so(p,q) is not h_n: its report must not carry h_n's series
    rep = homology_dims(build_so(Signature(2, 2)), 2)
    assert rep.predicted is None and rep.matches is None
    # the abelian-extension twin of h(2,2) keeps it
    sig = Signature(2, 2)
    twin = build_abelian_extension(build_so(sig), standard_translation_action(sig), m_dim=4)
    assert homology_dims(twin, 2).predicted == predicted_hl_dims(sig, 2)


def test_negative_caps_rejected():
    with pytest.raises(ValueError, match="cap_exact must be at least 0, got -1"):
        HomologyOptions(cap_exact=-1)
    # cap 0 is valid: it ranks only the degrees without columns
    assert HomologyOptions(cap_exact=0).cap_exact == 0


def test_modular_rank_depends_on_the_prime():
    # an entry equal to p1 vanishes mod p1 only: rank 0 mod p1, 1 mod p2
    # and over Q; a rank mod p is at most the rank over Q, and the prime
    # decides whether it falls below
    p1, p2 = draw_primes(random.Random(9), 2)
    block = SimpleNamespace(grade=(1, 3), rows=1, cols=1, columns=lambda: [[(0, p1)]])
    assert _rank_blocks([block], p1) == 0
    assert _rank_blocks([block], p2) == 1 == _rank_blocks([block])


def test_pure_python_import_and_ranks(run_python):
    # the package and both engines run without numpy: d_2 and d_3 exact,
    # and d_3 mod one prime as verify's cross-check ranks it
    code = (
        "import sys\n"
        "import leibniz_homology\n"
        "from leibniz_homology import LodayBoundary, Signature, build_affine, homology_dims\n"
        "from leibniz_homology.homology import _rank_blocks\n"
        "h = build_affine(Signature(2, 2))\n"
        "rep = homology_dims(h, 2)\n"
        "if rep.certificates[3].method != 'exact' or rep.betti != [1, 0, 0]:\n"
        "    sys.exit(f'not exact: {rep.certificates}')\n"
        "blocks = LodayBoundary(h).blocks(3)\n"
        "if _rank_blocks(blocks, 1_000_003) != _rank_blocks(blocks):\n"
        "    sys.exit('the ranks of the full d_3 mod p and over Q differ')\n"
        "if 'numpy' in sys.modules:\n"
        "    sys.exit('numpy was imported')\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def _reduced_h22() -> LodayBoundary:
    """The boundary that ``homology_dims`` ranks for h(2,2): the orbit sums
    of the kept blocks of its split form."""
    red = split_reduction(build_affine(Signature(2, 2)))
    return LodayBoundary(red.algebra, keep=red.grades, symmetries=red.symmetries)


def _non_representatives(op, k, grade):
    """The degree-k words of ``grade`` that lie in a kept orbit of ``op``
    but are not its representative, in lex order."""
    orbits = op.word_index(k, grade)
    block = GradeBlock(graded_words(op.algebra.grades), k, grade)
    return [
        w for w in map(block.unrank_word, range(block.dim))
        if (hit := orbits.canonical(w)) is not None and hit[0] != w
    ]


def _flip_orbit_signs(monkeypatch) -> set:
    """Make ``OrbitBlock.canonical`` give the wrong sign on every word put
    in the returned set."""
    wrong = set()
    canonical = OrbitBlock.canonical

    def flipped(self, word):
        hit = canonical(self, word)
        if word in wrong and hit is not None:
            return hit[0], -hit[1]
        return hit

    monkeypatch.setattr(OrbitBlock, "canonical", flipped)
    return wrong


def test_orbit_sign_error_caught_by_dd_check(monkeypatch):
    # a wrong sign on one non-representative word of a length-3 orbit block
    # at (2,2) changes only the orbit columns; apply on the whole split
    # complex never reads them, the check of the ranked columns does
    op = _reduced_h22()
    grade = op._grades(3)[0]
    _flip_orbit_signs(monkeypatch).add(_non_representatives(op, 3, grade)[0])
    with pytest.raises(AssertionError, match=re.escape(f"d∘d != 0 at degree 4, grade {grade}")):
        homology_dims(build_affine(Signature(2, 2)), 4)


def _every_column_dd_check(k, lower, kept, block):
    """The d∘d check as it was before it skipped the columns that do not
    raise the rank: every column of the block is composed."""
    below = lower.pop(block.grade, None)
    held = None if kept is None else kept.setdefault(block.grade, [])

    def check(col, raised):
        if below is not None:
            out = Counter()
            for i, v in col:
                for r, w in below[i]:
                    out[r] += v * w
            if any(out.values()):
                raise AssertionError(f"d∘d != 0 at degree {k}, grade {block.grade}")
        if held is not None:
            held.append(col)

    return check


def test_no_orbit_sign_error_changes_the_table_silently(monkeypatch):
    # each of the 104 single-word sign errors on the length-4 orbit block of
    # grade (0,0,0,0) at (2,2) either fails the d∘d check of the ranked
    # columns or leaves the table right; 100 random chains per degree let 16
    # of them through with the table [1, 0, 0, 1, 0].  Composing only the
    # columns that raise the rank raises on exactly the words, with the
    # messages, of a copy of the check that composes every column
    h = build_affine(Signature(2, 2))
    words = _non_representatives(_reduced_h22(), 4, (0, 0, 0, 0))
    assert len(words) == 104
    wrong = _flip_orbit_signs(monkeypatch)

    def sweep():
        raised = {}
        for word in words:
            wrong.clear()
            wrong.add(word)
            try:
                betti = homology_dims(h, 4).betti
            except AssertionError as exc:
                assert re.fullmatch(r"d∘d != 0 at degree [45], grade .*", str(exc)), word
                raised[word] = str(exc)
            else:
                assert betti == [1, 0, 0, 1, 1], word
        return raised

    raised = sweep()
    assert raised  # the sweep reaches errors that the check must catch
    monkeypatch.setattr(homology, "_dd_check", _every_column_dd_check)
    assert sweep() == raised


def test_dd_check_composes_only_columns_that_raise_the_rank(monkeypatch):
    # a column that does not raise the rank of its block lies in the span of
    # earlier columns whose composites were 0, so only the columns that
    # raise it are composed: each composite follows a True from add_column
    events = []
    add_column = ExactEliminator.add_column
    composite = homology._composite

    def logged_add(self, col):
        raised = add_column(self, col)
        events.append(raised)
        return raised

    def logged_composite(col, below):
        events.append("composite")
        return composite(col, below)

    read = 0
    column = complexes.BoundaryBlock.column

    def counted(self, j):
        nonlocal read
        read += 1
        return column(self, j)

    monkeypatch.setattr(ExactEliminator, "add_column", logged_add)
    monkeypatch.setattr(homology, "_composite", logged_composite)
    monkeypatch.setattr(complexes.BoundaryBlock, "column", counted)
    assert homology_dims(build_affine(Signature(2, 2)), 4).betti == [1, 0, 0, 1, 1]
    composed = [t for t, e in enumerate(events) if e == "composite"]
    assert composed and all(events[t - 1] is True for t in composed)
    assert len(composed) < read


def test_each_ranked_column_generated_once(monkeypatch):
    # the d∘d check composes the columns the ranks read, so it generates
    # none of its own: every ranked column is generated exactly once, and
    # no column of a block the ranks skip (no rows) is generated at all
    calls = Counter()
    column = complexes.BoundaryBlock.column

    def counted(self, j):
        calls[self.colspace.length, self.grade, j] += 1
        return column(self, j)

    monkeypatch.setattr(complexes.BoundaryBlock, "column", counted)
    homology_dims(build_affine(Signature(2, 2)), 4)
    op = _reduced_h22()
    blocks = [(k, b) for k in range(2, 6) for b in op.blocks(k)]
    ranked = {(k, b.grade, j) for k, b in blocks if b.rows for j in range(b.cols)}
    assert calls.keys() == ranked
    assert set(calls.values()) == {1}


def test_every_boundary_term_goes_through_canonical(monkeypatch):
    # the sign-injection tests patch OrbitBlock.canonical, so they reach
    # every term of every ranked orbit column only if each term is looked
    # up there, once, and nothing else calls it
    calls = 0
    terms = 0
    canonical = OrbitBlock.canonical
    column = complexes.BoundaryBlock.column

    def counted_canonical(self, word):
        nonlocal calls
        calls += 1
        return canonical(self, word)

    def counted_column(self, j):
        nonlocal terms
        terms += len(self.word_boundary(self.colspace.unrank_word(j)))
        return column(self, j)

    monkeypatch.setattr(OrbitBlock, "canonical", counted_canonical)
    monkeypatch.setattr(complexes.BoundaryBlock, "column", counted_column)
    homology_dims(build_affine(Signature(2, 2)), 4)
    assert terms and calls == terms


# at (2,2) d_4 has 161 orbit columns and d_5 1,240
@pytest.mark.parametrize("cap_exact, capped_at", [(500, 5)])
def test_dd_check_covers_capped_degrees(monkeypatch, cap_exact, capped_at):
    # a wrong sign on one non-representative word of the length-4 orbit
    # block of translation count 2 first shows in d_4∘d_5; the check still
    # reaches degree 5 when d_5 is past the cap.  That degree is not
    # ranked, so it gets the sampled check; 1,000 chains catch this error
    # whichever columns are drawn.  A degree past the capped one is not
    # checked: no entry of the table reads it
    h = build_affine(Signature(2, 2))
    opts = HomologyOptions(cap_exact=cap_exact)
    assert homology_dims(h, 4, options=opts).capped_at == capped_at
    grade = (2, 0, 0, 0)
    _flip_orbit_signs(monkeypatch).add(_non_representatives(_reduced_h22(), 4, grade)[0])
    monkeypatch.setattr(complexes, "DD_CHECKS", 1_000)
    with pytest.raises(AssertionError, match=re.escape(f"d∘d != 0 at degree 5, grade {grade}")):
        homology_dims(h, 4, options=opts)


def test_capped_run_checks_only_the_capped_degree(monkeypatch):
    # no entry of a capped table reads a degree past the cap, so the
    # sampled check builds no block there, whatever max_degree is
    calls = []
    monkeypatch.setattr(homology, "check_dd_zero", lambda op, degrees, rng: calls.append(tuple(degrees)))
    h = build_affine(Signature(2, 2))
    for max_degree in (4, 6):
        assert homology_dims(h, max_degree, options=HomologyOptions(cap_exact=500)).capped_at == 5
    assert calls == [(5,), (5,)]


def test_ranked_dd_check_traced_as_complexes_layer(run_python):
    # the degrees past a cap get the sampled check; benchmark/tracing.py
    # names the span of homology.check_dd_zero after the module defining
    # it, and its layer table knows only complexes.check_dd_zero; install()
    # rewraps module attributes for the rest of the process, so this runs
    # in a subprocess
    assert homology.check_dd_zero is complexes.check_dd_zero
    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(root / 'benchmark')!r})\n"
        "import tracing\n"
        "from leibniz_homology import HomologyOptions, Signature, build_affine, homology_dims\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "opts = HomologyOptions(cap_exact=500)\n"
        "with tracer:\n"
        "    rep = homology_dims(build_affine(Signature(2, 2)), 4, options=opts)\n"
        "if rep.capped_at != 5:\n"
        "    sys.exit(f'not capped at degree 5: {rep.capped_at}')\n"
        "metrics = tracer.layer_metrics()\n"
        "if not metrics['complexes.ddcheck_s'] > 0:\n"
        "    sys.exit(f'no time in the d∘d check: {metrics}')\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_environment_recorded():
    rep = homology_dims(build_abelian(2), 2, options=HomologyOptions(seed=42))
    assert rep.environment == {"seed": 42, "cap_exact": DEFAULT_CAP_EXACT}


@pytest.mark.slow
def test_h5_degree4_full_route(full_route):
    # the first tensor-algebra generator sits in degree n-1 = 4 at n = 5;
    # on the full route its detection needs the rank of the 50625 x 759375
    # boundary, exact under the default cap; the table is the one the
    # reduced route gives (test_h5_degree4_exact)
    sig = Signature(2, 3)
    rep = homology_dims(full_route(build_affine(sig)), 4)
    assert rep.betti == [1, 0, 0, 0, 1]
    assert rep.betti == predicted_hl_dims(sig, 4)
    assert all(e.certification == "exact" for e in rep.entries)


@pytest.mark.slow
def test_h5_degree4_exact():
    # the orbit sums of the kept blocks of d_5: 5,345 columns (of 42,663 kept)
    rep = homology_dims(build_affine(Signature(2, 3)), 4)
    assert rep.betti == [1, 0, 0, 0, 1]
    assert rep.matches and all(rep.matches)
    assert all(e.certification == "exact" for e in rep.entries)
    assert rep.certificates[5].rank == 408


@pytest.mark.slow
def test_h4_degree4_full_route(sig4, full_route):
    # the full route: d_5 (10^5 columns) exact under the default cap; the
    # table is the one the reduced route gives (test_h4_degree4_exact)
    rep = homology_dims(full_route(build_affine(sig4)), 4)
    assert rep.betti == [1, 0, 0, 1, 1]
    assert rep.betti == predicted_hl_dims(sig4, 4)
    assert all(e.certification == "exact" for e in rep.entries)
    cert = rep.certificates[5]
    assert cert.method == "exact" and cert.rank == 9090


# the rank of d_5 on the orbit sums of its kept blocks
KEPT_D5_RANK = {(2, 2): 148, (3, 1): 307, (1, 3): 307}


def test_h4_degree4_exact(sig4):
    rep = homology_dims(build_affine(sig4), 4)
    assert rep.betti == [1, 0, 0, 1, 1]
    assert rep.matches and all(rep.matches)
    assert all(e.certification == "exact" for e in rep.entries)
    cert = rep.certificates[5]
    assert cert.method == "exact" and cert.rank == KEPT_D5_RANK[(sig4.p, sig4.q)]


@pytest.mark.slow
def test_h4_degree5_exact():
    # degree 5 at n = 4: d_6 on the orbit sums of its kept blocks, exact over Q
    rep = homology_dims(build_affine(Signature(2, 2)), 5)
    assert rep.capped_at is None
    assert rep.betti == [1, 0, 0, 1, 1, 0]
    assert rep.matches and all(rep.matches)
    assert all(e.certification == "exact" for e in rep.entries)


@pytest.mark.slow
@pytest.mark.parametrize(
    "pq, table",
    [
        ((4, 0), [1, 0, 0, 1, 1, 0, 1]),
        ((5, 0), [1, 0, 0, 0, 1, 1, 0]),
        ((6, 0), [1, 0, 0, 0, 0, 1, 1]),
        ((7, 0), [1, 0, 0, 0, 0, 0, 1]),
    ],
    ids=["4_0", "5_0", "6_0", "7_0"],
)
def test_degree6_exact(pq, table):
    # degree 6 needs d_7 on the orbit sums of its kept blocks: 53,088
    # columns at (4,0), 97,727 at (5,0), 106,358 at (6,0) and 89,821 at
    # (7,0), all within the default cap; at n = 6 Betti_6 is the alpha~
    # class in degree n, at n = 7 the gamma~ class in degree n - 1, and at
    # n = 5 degree 6 has no class
    sig = Signature(*pq)
    rep = homology_dims(build_affine(sig), 6)
    assert rep.capped_at is None
    assert rep.betti == table == predicted_hl_dims(sig, 6)
    assert all(e.certification == "exact" for e in rep.entries)


@pytest.mark.parametrize("n", [4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_signatures_of_one_n_agree(n):
    # over Q(i) every h(p,q) with p + q = n is h(n,0), so their tables
    # agree; each signature ranks its own complex (a torus when q > 0,
    # none at q = 0, groups of order 4 to 720), so agreement can fail.
    # Degree n - 1 reaches the gamma~ class at n = 5 and n = 6: about 17 s
    # of CPU at n = 6, most of it at (2,4)
    degree = max(4, n - 1)
    rows = {(p, n - p): homology_dims(build_affine(Signature(p, n - p)), degree).betti for p in range(n, 0, -1)}
    assert all(row == predicted_hl_dims(Signature(n, 0), degree) for row in rows.values()), rows
    if n == 6:
        assert predicted_hl_dims(Signature(6, 0), 5) == [1, 0, 0, 0, 0, 1]


def test_reduction_only_for_canonical_algebras(full_route):
    sig = Signature(2, 2)
    h, so = build_affine(sig), build_so(sig)
    red = split_reduction(h)
    # torus Y(1,3), Y(2,4); the commuting flips are {1, -I}: mask 0b11 on
    # the split parities, which keeps 0 and 0b11
    assert (red.torus, red.flips, red.kept) == ((BoostY(1, 3), BoostY(2, 4)), (0b11,), (0, 0b11))
    assert red.algebra.labels != h.labels and red.algebra.dim == h.dim
    assert split_reduction(so) == red and split_reduction(so).algebra.dim == so.dim
    assert split_reduction(h.copy()) is red  # built once per signature
    # q = 0: no torus, the flips within the block keep the constant parities
    h40 = split_reduction(build_affine(Signature(4, 0)))
    assert (h40.torus, h40.kept) == ((), (0, 0b1111))
    # (3,1): torus Y(1,4) and the flip e2e3; bit 0 stands for e1 and e4
    h31 = split_reduction(build_affine(Signature(3, 1)))
    assert (h31.torus, h31.flips, h31.kept) == ((BoostY(1, 4),), (0b110,), (0, 0b001, 0b110, 0b111))
    twin = build_abelian_extension(so, standard_translation_action(sig), m_dim=4)
    flat = LieAlgebra(h.labels, {}, grades=h.grades, sig=sig)  # canonical grades, no brackets
    for alg in (build_abelian(4), twin, flat, full_route(h), red.algebra):
        assert split_reduction(alg) is None, alg
    # I_n and the abelian extension keep every word
    assert [e.dim for e in homology_dims(build_abelian(2), 2).entries] == [1, 2, 4]
    assert [e.dim for e in homology_dims(twin, 2).entries] == [1, 10, 100]


def test_split_form_built_lazily(run_python):
    # importing the package and building the algebra load no split form; the
    # first reduced homology run builds it, once
    code = (
        "import sys\n"
        "from leibniz_homology import Signature, build_affine, homology_dims\n"
        "h = build_affine(Signature(2, 2))\n"
        "homology_dims(h, 1, kind='ce')\n"
        "if 'leibniz_homology.split' in sys.modules:\n"
        "    sys.exit('the split module was loaded before a Loday run')\n"
        "homology_dims(h, 1)\n"
        "homology_dims(h, 2)\n"
        "from leibniz_homology.split import _split_reduction\n"
        "info = _split_reduction.cache_info()\n"
        "if (info.currsize, info.misses) != (1, 1):\n"
        "    sys.exit(f'split forms built: {info}')\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_witness_solve_leaves_split_unloaded(run_python):
    # the orbit route of is_boundary builds its group in the standard basis,
    # and the package import loads neither module
    code = (
        "import sys\n"
        "import leibniz_homology as lh\n"
        "if 'leibniz_homology.rotations' in sys.modules:\n"
        "    sys.exit('importing the package loaded the rotations module')\n"
        "sig = lh.Signature(2, 2)\n"
        "sign, _ = lh.resolve_gamma_tilde_sign(sig)\n"
        "diff = lh.make_gamma_tilde(sig, sign) - lh.make_gamma_bar(sig)\n"
        "if lh.is_boundary(diff) is None or lh.is_boundary(lh.make_alpha_tilde(sig)) is not None:\n"
        "    sys.exit('wrong answers')\n"
        "if 'leibniz_homology.split' in sys.modules:\n"
        "    sys.exit('is_boundary loaded the split module')\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_reduction_in_report():
    rep = homology_dims(build_affine(Signature(2, 2)), 2)
    data = rep.to_json_dict()
    assert data["reduction"] == {
        "torus": ["Y(1,3)", "Y(2,4)"], "flips": [3], "kept_parities": [0, 3], "group_order": 4
    }
    # orbit sums: (e1, e2) -> (-e1, -e2) negates -2Y(1,3) and -2Y(2,4) in
    # degree 1, so their orbits drop out
    assert [e.dim for e in rep.entries] == [1, 0, 5]
    assert "reduced to torus weight 0 under Y(1,3), Y(2,4)" in rep.table()
    assert "orbit sums under a group of order 4" in rep.table()
    assert cohomology_dims(rep).to_json_dict()["reduction"] == data["reduction"]
    # unreduced reports carry no reduction key, as before
    assert "reduction" not in homology_dims(build_abelian(2), 2).to_json_dict()
    ce = homology_dims(build_affine(Signature(2, 2)), 2, kind="ce")
    assert ce.reduction is None and "reduction" not in ce.to_json_dict()


def test_dropped_blocks_build_no_states():
    # a state of the word index is built only when a ranked block reaches
    # it, so every state is reachable from the root of a kept block
    graded_words.cache_clear()
    red = homology_dims(build_affine(Signature(2, 2)), 4).reduction
    words = graded_words(red.algebra.grades)
    states = words._states
    roots = [(k, g) for k in range(1, 6) for g in words.grades_of_length(k) if red.keeps(g)]
    todo = [states[key] for key in roots if key in states]
    reached = set()
    while todo:
        _, nxt = todo.pop()
        if id(nxt) not in reached:
            reached.add(id(nxt))
            todo.extend(st for st in nxt if st is not None)
    assert reached == {id(nxt) for _, nxt in states.values()}
    # d_5 has dropped blocks, and a length-5 state can only be a root
    dropped = [g for g in words.grades_of_length(5) if not red.keeps(g)]
    assert dropped and not any((5, g) in states for g in dropped)


@pytest.mark.parametrize(
    "pq, top",
    [
        pytest.param(pq, top, id=f"{pq[0]}_{pq[1]}")
        for pq, top in [((2, 2), 5), ((3, 1), 5), ((1, 3), 5), ((4, 0), 5), ((2, 3), 5), ((3, 3), 4)]
    ],
)
def test_named_kept_grades_miss_none(pq, top):
    # the reduction names its candidate grades per degree; on a fresh word
    # index they give the blocks that filtering every grade of the degree
    # through ``keeps`` gives, with the same row and column dimensions
    red = split_reduction(build_affine(Signature(*pq)))
    graded_words.cache_clear()
    named = LodayBoundary(red.algebra, keep=red.grades, symmetries=red.symmetries)
    got = [[(b.grade, b.rows, b.cols) for b in named.blocks(k)] for k in range(top + 1)]
    words = graded_words(red.algebra.grades)
    filtered = LodayBoundary(
        red.algebra,
        keep=lambda k: [g for g in words.grades_of_length(k) if red.keeps(g)],
        symmetries=red.symmetries,
    )
    assert got == [[(b.grade, b.rows, b.cols) for b in filtered.blocks(k)] for k in range(top + 1)]
    assert [named.dim(k) for k in range(top + 1)] == [filtered.dim(k) for k in range(top + 1)]
    assert all(got[2:])


@pytest.mark.parametrize(
    "pq, top",
    [pytest.param(pq, top, id=f"{pq[0]}_{pq[1]}") for pq, top in [((2, 2), 3), ((3, 1), 3), ((4, 0), 3), ((3, 3), 2)]],
)
def test_flipped_blocks_are_acyclic(pq, top):
    # every block the reduction drops, for a nonzero torus weight or a
    # nontrivial flip character, has Betti number 0 through degree ``top``
    red = split_reduction(build_affine(Signature(*pq)))
    op = LodayBoundary(red.algebra)
    words = graded_words(red.algebra.grades)
    rank = {
        k: {b.grade: _rank_blocks([b]) for b in op.blocks(k) if not red.keeps(b.grade)}
        for k in range(1, top + 2)
    }
    dropped = {"weight": 0, "character": 0}
    for k in range(1, top + 1):
        for g in words.grades_of_length(k):
            if red.keeps(g):
                continue
            dropped["weight" if any(g[1:-1]) else "character"] += 1
            dim = words.count(k, g)
            assert dim - rank[k].get(g, 0) - rank[k + 1].get(g, 0) == 0, (k, g)
    # at (2,2) and (3,3) every coordinate is paired, so weight 0 forces
    # the trivial character and only weights drop blocks
    assert (dropped["weight"] > 0) == bool(red.torus)
    assert (dropped["character"] > 0) == (pq in ((3, 1), (4, 0)))
@pytest.mark.parametrize(
    "alg, degree",
    [
        (build_affine(Signature(4, 0)), 3),
        (build_affine(Signature(3, 3)), 2),
        (build_so(Signature(2, 2)), 3),
        (build_so(Signature(3, 1)), 3),
        (build_so(Signature(2, 1)), 3),
    ],
    ids=["h40", "h33", "so22", "so31", "so21"],
)
def test_reduced_tables_match_full_route(alg, degree, full_route):
    reduced = homology_dims(alg, degree)
    full = homology_dims(full_route(alg), degree)
    assert reduced.reduction is not None and full.reduction is None
    assert reduced.betti == full.betti
    assert sum(e.dim for e in reduced.entries) < sum(e.dim for e in full.entries)


def _betti_per_grade(op, red, top):
    """{(degree, grade): Betti number} over the kept grades through ``top``,
    every block ranked on its own."""
    words = graded_words(red.algebra.grades)
    rank = {k: {b.grade: _rank_blocks([b]) for b in op.blocks(k)} for k in range(top + 2)}
    return {
        (k, g): op.word_index(k, g).dim - rank[k].get(g, 0) - rank[k + 1].get(g, 0)
        for k in range(top + 1)
        for g in words.grades_of_length(k)
        if red.keeps(g)
    }


@pytest.mark.parametrize(
    "pq, top",
    [
        pytest.param(pq, top, id=f"{pq[0]}_{pq[1]}")
        for pq, top in [((2, 2), 4), ((3, 1), 4), ((1, 3), 4), ((4, 0), 4), ((2, 3), 3), ((3, 3), 3)]
    ],
)
def test_orbit_sums_match_kept_blocks_per_grade(pq, top):
    # the route before orbit sums, every word of the kept blocks ranked, is
    # the reference: each kept grade has the same Betti number on both
    sig = Signature(*pq)
    red = split_reduction(build_affine(sig))
    kept = LodayBoundary(red.algebra, keep=red.grades)
    orbits = LodayBoundary(red.algebra, keep=red.grades, symmetries=red.symmetries)
    reference = _betti_per_grade(kept, red, top)
    assert _betti_per_grade(orbits, red, top) == reference
    assert orbits.dim(top + 1) < kept.dim(top + 1)
    rep = homology_dims(build_affine(sig), top)
    assert rep.betti == [sum(b for (k, _), b in reference.items() if k == d) for d in range(top + 1)]
    assert [e.dim for e in rep.entries] == [orbits.dim(k) for k in range(top + 1)]
