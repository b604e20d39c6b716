"""Machine verification suites: structure checks and the claim checks.

Every check carries a ``claim`` string (the mathematical statement being
verified) or the tag "plumbing" for artifact-internal consistency checks.
Statuses: "pass" / "fail" for asserted checks, "reported" for values that are
computed and recorded without being asserted (the n = 4, k = 2 coincidence of
the middle invariant table), and for the witness solves when a block is past
the exact cap.

Every Betti number a suite checks is exact over Q.  The one modular rank is
the cross-field check of the engines, ``structure.rank_cross_field``: the
exact rank of a boundary against its ranks mod ``CROSS_FIELD_PRIMES``
primes drawn from the seed.

Reports serialize to a versioned JSON document; with a fixed seed two runs
produce byte-identical output (no timestamps, deterministic prime draws).

The module also holds the structure validators the suites run: ``validate``
(antisymmetry, Jacobi, integrality and the defining fields) and
``build_abelian_extension`` with ``standard_translation_action``.  No Betti
table or invariant computation runs them, so the package loads this module
on first use of one of its names, and ``cli`` only in ``algebra`` and
``verify``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import complexes, invariants, repspace
from ._value import Value
from .homology import (
    SCHEMA_VERSION,
    HomologyOptions,
    _rank_blocks,
    cohomology_dims,
    homology_dims,
    predicted_hl_dims,
)
from .liealg import (
    BasisLabel,
    BoostY,
    Coeff,
    GenericLabel,
    LieAlgebra,
    Matrix,
    ModuleLawError,
    RotationX,
    Signature,
    Translation,
    _decompose_field,
    _mat_commutator,
    build_abelian,
    build_affine,
    build_so,
    commutator_fields,
    field_of_label,
    so_labels,
)
from .linalg import CapExceededError, _image, draw_primes
from .repspace import act, mixed_space, random_chain, tensor_space, wedge_space

__all__ = [
    "CheckResult",
    "VerifyReport",
    "run_suite",
    "ValidationReport",
    "validate",
    "build_abelian_extension",
    "standard_translation_action",
]

# primes of the cross-field rank check, drawn from the seed
CROSS_FIELD_PRIMES = 2


class CheckResult(Value):
    _fields = ("check_id", "claim", "status", "details")

    def __init__(self, check_id: str, claim: str, status: str, details: str = "") -> None:
        self.check_id = check_id
        self.claim = claim
        self.status = status  # "pass" | "fail" | "reported"
        self.details = details

    def to_json_dict(self) -> dict:
        return self._asdict()


class VerifyReport(Value):
    _fields = ("suite", "signature", "checks", "environment", "resolved_gamma_sign")

    def __init__(
        self, suite: str, signature: Signature, checks: list[CheckResult], environment: dict,
        resolved_gamma_sign: Optional[int] = None,
    ) -> None:
        self.suite = suite
        self.signature = signature
        self.checks = checks
        self.environment = environment
        self.resolved_gamma_sign = resolved_gamma_sign

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "suite": self.suite,
            "signature": {"p": self.signature.p, "q": self.signature.q},
            "environment": self.environment,
            "resolved_gamma_sign": self.resolved_gamma_sign,
            "passed": self.passed,
            "results": [c.to_json_dict() for c in self.checks],
        }

    def table(self) -> str:
        lines = [f"verify suite={self.suite} sig={self.signature} passed={self.passed}"]
        for c in self.checks:
            lines.append(f"  [{c.status:>8}] {c.check_id}: {c.details or c.claim}")
        return "\n".join(lines)


class _Suite:
    def __init__(self) -> None:
        self.checks: list[CheckResult] = []

    def record(self, check_id: str, claim: str, ok: bool, details: str = "") -> None:
        self.checks.append(CheckResult(check_id, claim, "pass" if ok else "fail", details))

    def report(self, check_id: str, claim: str, details: str) -> None:
        self.checks.append(CheckResult(check_id, claim, "reported", details))


# ---------------------------------------------------------------------------
# Abelian extensions.


def _as_sparse_matrix(mat, m: int) -> Matrix:
    """Accept a dict (i, j) -> value or a nested sequence of rows and return
    a sparse dict.  Every value must be exact, an ``int`` or a ``Fraction``."""
    if isinstance(mat, dict):
        entries = mat.items()
    else:
        entries = (((i, j), v) for i, row in enumerate(mat) for j, v in enumerate(row))
    out = {}
    for (i, j), v in entries:
        if not isinstance(v, (int, Fraction)):
            raise ValueError(f"action matrix entry ({i},{j}) is {v!r}, not an int or a Fraction")
        if v:
            out[(i, j)] = v
    for (i, j) in out:
        if not (0 <= i < m and 0 <= j < m):
            raise ValueError(f"action matrix entry ({i},{j}) outside dimension {m}")
    return out


def standard_translation_action(sig: Signature) -> list[Matrix]:
    """Matrices of the standard action of so(p,q) on I_n.

    action(X)·m = [X, m] inside the affine algebra; for a label with field
    matrix A this is -A^T, so build_abelian_extension(build_so(sig), these)
    reproduces build_affine(sig) entry for entry.
    """
    mats = []
    for lab in so_labels(sig):
        A, _ = field_of_label(lab, sig)
        mats.append({(j, i): -v for (i, j), v in A.items()})
    return mats


def build_abelian_extension(g: LieAlgebra, action: Sequence, *, m_dim: int) -> LieAlgebra:
    """Abelian extension M ⊕ g with bracket [g1+m1, g2+m2] = [g1,g2] + [g1,m2] - [g2,m1].

    ``action[a]`` is the matrix of m -> [e_a, m] on M, a dict (i, j) -> value
    or a list of rows, with ``int`` or ``Fraction`` entries only (any other
    value raises ``ValueError``: no float is rounded).  The matrices must
    satisfy action([a,b]) = action(a)action(b) - action(b)action(a); the
    failing pair is named otherwise.  Basis order: M = span of m(1), ...,
    m(m_dim) first, then g; M has grade (1, 0) and g grade (0, 0).
    """
    if len(action) != g.dim:
        raise ValueError("need one action matrix per basis element of g")
    mats = [_as_sparse_matrix(mat, m_dim) for mat in action]

    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            lhs: dict[tuple[int, int], Coeff] = {}
            for c, s in g.bracket(a, b).items():
                for key, v in mats[c].items():
                    lhs[key] = lhs.get(key, 0) + s * v
            rhs = _mat_commutator(mats[a], mats[b])
            diff = dict(lhs)
            for key, v in rhs.items():
                diff[key] = diff.get(key, 0) - v
            if any(v for v in diff.values()):
                raise ModuleLawError((g.labels[a], g.labels[b]), "action([a,b]) != [action(a),action(b)]")

    labels: list[BasisLabel] = [GenericLabel(f"m({i})") for i in range(1, m_dim + 1)] + list(g.labels)
    structure: dict[tuple[int, int], dict[int, Coeff]] = {}
    # g-g block, shifted by m_dim.
    for (a, b), vec in g.structure.items():
        structure[(a + m_dim, b + m_dim)] = {c + m_dim: v for c, v in vec.items()}
    # mixed block: [m_i, g_a] = -[g_a, m_i] = -action(a)·e_i.
    for a in range(g.dim):
        for (i, j), v in mats[a].items():
            # action(a)·e_j has component v at i:  [g_a, m_j] = sum_i v·m_i
            vec = structure.setdefault((a + m_dim, j), {})
            vec[i] = vec.get(i, 0) + v
    for (a, j) in [k for k in structure if k[0] >= m_dim and k[1] < m_dim]:
        structure[(j, a)] = {c: -v for c, v in structure[(a, j)].items()}
    structure = {k: {c: v for c, v in vec.items() if v} for k, vec in structure.items()}
    structure = {k: vec for k, vec in structure.items() if vec}
    grades = [(1, 0)] * m_dim + [(0, 0)] * g.dim
    return LieAlgebra(labels, structure, grades=grades, sig=g.sig, name=f"{g.name}+M{m_dim}")


# ---------------------------------------------------------------------------
# Validation.


class ValidationReport(Value):
    _fields = (
        "algebra", "antisymmetry_ok", "jacobi_ok", "jacobi_failures",
        "antisymmetry_failures", "integral", "oracle_ok",
    )

    def __init__(
        self, algebra: str, antisymmetry_ok: bool, jacobi_ok: bool,
        jacobi_failures: Optional[list[tuple[BasisLabel, BasisLabel, BasisLabel]]] = None,
        antisymmetry_failures: Optional[list[tuple[BasisLabel, BasisLabel]]] = None,
        integral: Optional[bool] = None, oracle_ok: Optional[bool] = None,
    ) -> None:
        self.algebra = algebra
        self.antisymmetry_ok = antisymmetry_ok
        self.jacobi_ok = jacobi_ok
        self.jacobi_failures = [] if jacobi_failures is None else jacobi_failures
        self.antisymmetry_failures = [] if antisymmetry_failures is None else antisymmetry_failures
        self.integral = integral
        self.oracle_ok = oracle_ok

    @property
    def ok(self) -> bool:
        checks = [self.antisymmetry_ok, self.jacobi_ok]
        if self.integral is not None:
            checks.append(self.integral)
        if self.oracle_ok is not None:
            checks.append(self.oracle_ok)
        return all(checks)


MAX_FAILURES = 5  # failing pairs and triples listed per check


def validate(alg: LieAlgebra) -> ValidationReport:
    """Check antisymmetry and Jacobi exactly; canonical algebras additionally
    get an integrality check and a recomputation from their defining fields."""
    report = ValidationReport(algebra=alg.name, antisymmetry_ok=True, jacobi_ok=True)
    d = alg.dim
    for a in range(d):
        if alg.bracket(a, a):
            report.antisymmetry_ok = False
            report.antisymmetry_failures.append((alg.labels[a], alg.labels[a]))
        for b in range(a + 1, d):
            vab = alg.bracket(a, b)
            vba = alg.bracket(b, a)
            keys = set(vab) | set(vba)
            if any(vab.get(c, 0) != -vba.get(c, 0) for c in keys):
                report.antisymmetry_ok = False
                if len(report.antisymmetry_failures) < MAX_FAILURES:
                    report.antisymmetry_failures.append((alg.labels[a], alg.labels[b]))

    for a in range(d):
        for b in range(a + 1, d):
            for c in range(b + 1, d):
                acc: dict[int, Coeff] = {}
                for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                    for m, s in alg.bracket(x, y).items():
                        for r, t in alg.bracket(m, z).items():
                            acc[r] = acc.get(r, 0) + s * t
                if any(v for v in acc.values()):
                    report.jacobi_ok = False
                    if len(report.jacobi_failures) < MAX_FAILURES:
                        report.jacobi_failures.append(
                            (alg.labels[a], alg.labels[b], alg.labels[c])
                        )

    canonical = alg.sig is not None and all(
        isinstance(lab, (Translation, RotationX, BoostY)) for lab in alg.labels
    )
    if canonical:
        report.integral = all(
            isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1)
            for vec in alg.structure.values()
            for v in vec.values()
        )
        index = {lab: k for k, lab in enumerate(alg.labels)}
        fields = [field_of_label(lab, alg.sig) for lab in alg.labels]
        ok = True
        for a in range(d):
            for b in range(d):
                if a == b:
                    continue
                expect = _decompose_field(commutator_fields(fields[a], fields[b]), alg.sig, index)
                got = {c: v for c, v in alg.bracket(a, b).items() if v}
                if {c: int(v) for c, v in got.items()} != expect:
                    ok = False
        report.oracle_ok = ok
    return report


# ---------------------------------------------------------------------------
# Structure suite (plumbing, any n >= 2).


def _structure_checks(sig: Signature, opts: HomologyOptions, suite: _Suite) -> None:
    rng = random.Random(opts.seed)
    so = build_so(sig)
    h = build_affine(sig)
    for alg in (so, h, build_abelian(sig.n)):
        rep = validate(alg)
        suite.record(
            f"structure.validate.{alg.name}",
            "plumbing",
            rep.ok,
            f"antisymmetry={rep.antisymmetry_ok} jacobi={rep.jacobi_ok} "
            f"integral={rep.integral} fields={rep.oracle_ok}",
        )
    ext = build_abelian_extension(so, standard_translation_action(sig), m_dim=sig.n)
    suite.record(
        "structure.extension_matches_affine",
        "the abelian extension of so(p,q) by the standard action equals the affine algebra",
        ext.structure == h.structure and ext.dim == h.dim,
    )
    # abelian homology oracle
    rep = homology_dims(build_abelian(2), 3, options=opts)
    suite.record(
        "structure.abelian_homology",
        "the Loday homology of a 2-dim abelian algebra has dimensions 2^k",
        rep.betti == [1, 2, 4, 8],
        f"betti={rep.betti}",
    )
    # rank/unrank round trips
    spaces = [
        tensor_space(h, 3),
        wedge_space(h, 2),
        mixed_space(h, 2, lead=h.so_indices),
    ]
    ok = all(
        sp.rank_word(sp.unrank_word(r)) == r for sp in spaces for r in range(sp.dim)
    )
    suite.record("structure.rank_unrank", "plumbing", ok)
    # matrix-free vs assembled action agreement on random chains
    sp = mixed_space(h, 2, lead=h.so_indices)
    ok = True
    for _ in range(10):
        x = rng.choice(h.so_indices)
        columns = repspace.assemble_action(sp, x)
        ch = random_chain(sp, rng)
        image = _image(columns, {sp.rank_word(w): c for w, c in ch.coeffs.items()})
        direct = {sp.rank_word(w): c for w, c in act(x, ch).coeffs.items()}
        ok = ok and image == direct
    suite.record("structure.action_paths_agree", "plumbing", ok)
    # d∘d = 0 spot checks (Loday and CE)
    op = complexes.LodayBoundary(h)
    try:
        complexes.check_dd_zero(op, range(2, 6), rng)
        ce = complexes.CEBoundary(h, range(h.dim), h.translation_indices)
        complexes.check_dd_zero(ce, range(2, sig.n + 1), rng)
        detail = f"{complexes.DD_CHECKS} random chains per degree"
        suite.record("structure.dd_zero", "plumbing", True, detail)
    except AssertionError as exc:
        suite.record("structure.dd_zero", "plumbing", False, str(exc))
    # cross-field rank agreement of the engines behind the Betti numbers
    exact = _rank_blocks(op.blocks(2))
    primes = draw_primes(random.Random(opts.seed), CROSS_FIELD_PRIMES)
    mod_ranks = [_rank_blocks(op.blocks(2), p) for p in primes]
    suite.record(
        "structure.rank_cross_field",
        "plumbing",
        all(r == exact for r in mod_ranks),
        f"exact={exact} modular={mod_ranks} primes={primes}",
    )
    # duality on the abelian report
    dual = cohomology_dims(rep)
    suite.record(
        "structure.duality",
        "cohomology dimensions equal homology dimensions degreewise",
        dual.betti == rep.betti and dual.variant == "cohomology",
    )


# ---------------------------------------------------------------------------
# Claim suite (n >= 4).


def _dim_table(
    suite: _Suite,
    check_id: str,
    claim: str,
    so,
    module: str,
    space_maker: Callable[[int], repspace.Space],
    n: int,
) -> None:
    """The invariant dimensions of ``space_maker(k)`` for k = 0..n against
    ``invariants.expected_invariant_dim(module, n, k)``."""
    ks = range(0, n + 1)
    got, want, reported = [], [], []
    for k in ks:
        dim = invariants.invariant_subspace(so, space_maker(k)).dim
        exp = invariants.expected_invariant_dim(module, n, k)
        got.append(dim)
        want.append(exp)
        if exp is None:
            reported.append((k, dim))
    asserted_ok = all(e is None or g == e for g, e in zip(got, want))
    detail = f"k={list(ks)} computed={got} expected={['*' if e is None else e for e in want]}"
    if reported:
        suite.report(check_id + ".coincident", claim + " (coincident case, recorded)",
                     "; ".join(f"k={k}: dim={d} (expected 2, statement ambiguous)" for k, d in reported))
    suite.record(check_id, claim, asserted_ok, detail)


def _claim_checks(sig: Signature, opts: HomologyOptions, suite: _Suite) -> Optional[int]:
    n, p = sig.n, sig.p
    h = build_affine(sig)
    so = build_so(sig)

    _dim_table(
        suite,
        "invariants.wedge_table",
        "invariants of the wedge powers of the translations are 1-dimensional at k=0 and k=n, zero otherwise",
        so,
        "wedge",
        lambda k: wedge_space(h, k),
        n,
    )
    _dim_table(
        suite,
        "invariants.vector_wedge_table",
        "invariants of translations ⊗ wedge^k are 1-dimensional at k=1 and k=n-1, zero otherwise",
        so,
        "I*wedge",
        lambda k: mixed_space(h, k, lead=h.translation_indices),
        n,
    )
    _dim_table(
        suite,
        "invariants.so_wedge_table",
        "invariants of so ⊗ wedge^k are 1-dimensional at k=2 and k=n-2, zero otherwise",
        so,
        "so*wedge",
        lambda k: mixed_space(h, k, lead=h.so_indices),
        n,
    )
    suite.record(
        "invariants.adjoint_trivial",
        "the adjoint module of so(p,q) has no invariants",
        invariants.invariant_subspace(so, tensor_space(h, 1, factors=h.so_indices)).dim
        == invariants.expected_invariant_dim("so", n),
    )

    named = {
        "delta": invariants.make_delta(sig),
        "beta": invariants.make_beta(sig),
        "rho": invariants.make_rho(sig),
        "gamma": invariants.make_gamma(sig),
    }
    for name, chain in named.items():
        suite.record(
            f"invariants.{name}_annihilated",
            f"the named element {name} is annihilated by every so(p,q) generator",
            invariants.annihilated_by(chain, so),
        )
    if n >= 5:
        ib2 = invariants.invariant_subspace(so, mixed_space(h, 2, lead=h.so_indices))
        ib3 = invariants.invariant_subspace(so, mixed_space(h, n - 2, lead=h.so_indices))
        suite.record(
            "invariants.rho_spans",
            "the so ⊗ wedge^2 invariant space is spanned by rho",
            ib2.dim == 1 and invariants.proportional(ib2.basis[0], named["rho"]),
        )
        suite.record(
            "invariants.gamma_spans",
            "the so ⊗ wedge^(n-2) invariant space is spanned by gamma",
            ib3.dim == 1 and invariants.proportional(ib3.basis[0], named["gamma"]),
        )
    alpha_tilde = invariants.make_alpha_tilde(sig)
    suite.record(
        "invariants.alpha_tilde_invariant",
        "the antisymmetrized volume tensor is invariant under the whole affine algebra",
        invariants.annihilated_by(alpha_tilde, range(h.dim)),
    )

    # rho's tensor embedding is not a cycle
    rho_tensor = complexes.embed_mixed_in_tensor(named["rho"])
    suite.record(
        "complexes.rho_not_cycle",
        "the antisymmetric tensor embedding of rho is not a cycle of the Loday complex",
        not complexes.is_cycle(rho_tensor),
    )

    resolved, results = invariants.resolve_gamma_tilde_sign(sig)
    suite.record(
        "invariants.gamma_tilde_sign",
        "exactly one of gamma_bar ± gamma_bar' is invariant under the whole affine algebra",
        resolved is not None,
        f"survivors={{+1: {results[1]}, -1: {results[-1]}}} resolved={resolved}",
    )
    if resolved is not None:
        gamma_tilde = invariants.make_gamma_tilde(sig, resolved)
        suite.record(
            "invariants.gamma_tilde_invariant",
            "the resolved combination is annihilated by every affine generator",
            invariants.annihilated_by(gamma_tilde, range(h.dim)),
        )
        gamma_bar = invariants.make_gamma_bar(sig)
        suite.record(
            "complexes.gamma_bar_cycle",
            "gamma_bar is a cycle of the Loday complex",
            complexes.is_cycle(gamma_bar),
        )
        suite.record(
            "complexes.gamma_tilde_cycle",
            "gamma_tilde is a cycle of the Loday complex",
            complexes.is_cycle(gamma_tilde),
        )
        # the witness solves are exact only: a block past cap_exact
        # leaves its check reported as not run, and the suite goes on
        claim = "gamma_tilde - gamma_bar is a boundary (the two classes agree in homology)"
        try:
            witness = complexes.is_boundary(gamma_tilde - gamma_bar, cap_exact=opts.cap_exact)
        except CapExceededError as exc:
            suite.report("complexes.gamma_homologous", claim, f"not run: {exc}")
        else:
            suite.record(
                "complexes.gamma_homologous",
                claim,
                witness is not None,
                "exact witness found" if witness is not None else "no witness",
            )
        claim = "the antisymmetrized volume tensor is not a boundary (degree-n class is nonzero)"
        try:
            not_bd = complexes.is_boundary(alpha_tilde, cap_exact=opts.cap_exact)
        except CapExceededError as exc:
            suite.report("complexes.alpha_tilde_not_boundary", claim, f"not run: {exc}")
        else:
            suite.record("complexes.alpha_tilde_not_boundary", claim, not_bd is None)

    # homology versus the predicted dimension series
    maxdeg = 4 if n == 4 else 3
    rep = homology_dims(h, maxdeg, options=opts)
    pred = predicted_hl_dims(sig, maxdeg)
    suite.record(
        "homology.matches_prediction",
        "Loday homology dimensions equal the predicted series (1 + t^n) * sum t^(k(n-1))",
        rep.capped_at is None and rep.betti == pred,
        f"computed={rep.betti} predicted={pred} "
        f"certs={[rep.certificates[k].method for k in sorted(rep.certificates)]}",
    )
    dual = cohomology_dims(rep)
    suite.record(
        "homology.duality",
        "cohomology dimensions equal homology dimensions degreewise",
        dual.betti == rep.betti,
    )
    return resolved


def run_suite(
    suite_name: str, sig: Signature, options: Optional[HomologyOptions] = None
) -> VerifyReport:
    """Run the named suite ("structure", "paper" or "all")."""
    opts = options or HomologyOptions()
    suite = _Suite()
    resolved: Optional[int] = None
    if suite_name not in ("structure", "paper", "all"):
        raise ValueError(f"unknown suite {suite_name!r}")
    claims = suite_name in ("paper", "all")
    if claims and sig.n < 4:
        raise ValueError(f"the claim suite is stated for n >= 4, got n={sig.n}")
    if suite_name in ("structure", "all"):
        _structure_checks(sig, opts, suite)
    if claims:
        resolved = _claim_checks(sig, opts, suite)
    return VerifyReport(
        suite=suite_name,
        signature=sig,
        checks=suite.checks,
        environment=opts.environment(),
        resolved_gamma_sign=resolved,
    )
