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
primes drawn from the seed; a draw is kept when it passes the modular
engine's own exact test, ``linalg._is_prime``.

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
from typing import Optional, Sequence

from . import complexes, invariants, repspace
from ._value import Value
from .homology import (
    SCHEMA_VERSION,
    BettiReport,
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
    _mat_commutator,
    _structure_from_fields,
    accumulate,
    build_abelian,
    build_affine,
    build_so,
    field_of_label,
    label_is_valid,
    so_labels,
)
from .linalg import CapExceededError, _image, _is_prime
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

# Random 30-bit primes for the modular ranks.
PRIME_LO = 1 << 29
PRIME_HI = 1 << 30

def draw_primes(rng, count: int) -> list[int]:
    """Distinct random primes from [PRIME_LO, PRIME_HI), reproducible from the rng state."""
    out: list[int] = []
    while len(out) < count:
        c = rng.randrange(PRIME_LO | 1, PRIME_HI, 2)
        if c not in out and _is_prime(c):
            out.append(c)
    return out


class CheckResult(Value):
    _fields = ("check_id", "claim", "status", "details")

    def __init__(self, check_id: str, claim: str, status: str, details: str = "") -> None:
        self.check_id = check_id
        self.claim = claim
        self.status = status  # "pass" | "fail" | "reported"
        self.details = details


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
            "results": [c._asdict() for c in self.checks],
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

    def record_table(self, check_id: str, claim: str, rep: BettiReport, ok: bool, details: str) -> None:
        """``record`` a check on the Betti table ``rep``, or ``report`` it as
        not run when the cap cut the table short."""
        if rep.capped_at is not None:
            self.report(check_id, claim, f"not run: {rep.cap_message}")
        else:
            self.record(check_id, claim, ok, details)


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
    return [
        {(j, i): -v for (i, j), v in field_of_label(lab, sig).items()} for lab in so_labels(sig)
    ]


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
            lhs: Matrix = {}
            for c, s in g.bracket(a, b).items():
                for key, v in mats[c].items():
                    accumulate(lhs, key, s * v)
            if lhs != _mat_commutator(mats[a], mats[b]):
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
    get an integrality check and a recomputation from their defining fields,
    which fails when the fields' brackets leave the labels' span.  A label
    invalid for the signature raises ``ValueError``."""
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
        try:
            fields = [field_of_label(lab, alg.sig) for lab in alg.labels]
            report.oracle_ok = alg.structure == _structure_from_fields(fields, alg.labels)
        except ValueError:
            if not all(label_is_valid(lab, alg.sig) for lab in alg.labels):
                raise
            report.oracle_ok = False  # the fields' brackets leave the labels' span
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
    suite.record_table(
        "structure.abelian_homology",
        "the Loday homology of a 2-dim abelian algebra has dimensions 2^k",
        rep, rep.betti == [1, 2, 4, 8], f"betti={rep.betti}",
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
    sp = spaces[2]
    ok = True
    for _ in range(10):
        x = rng.choice(h.so_indices)
        columns = repspace.assemble_action(sp, x)
        ch = random_chain(sp, rng)
        image = _image(columns, dict(sp.ranked(ch.coeffs)))
        direct = dict(sp.ranked(act(x, ch).coeffs))
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
    suite.record_table(
        "structure.duality",
        "cohomology dimensions equal homology dimensions degreewise",
        rep, dual.betti == rep.betti and dual.variant == "cohomology", "",
    )


# ---------------------------------------------------------------------------
# Claim suite (n >= 4).


def _dim_table(
    suite: _Suite, check_id: str, claim: str, so: LieAlgebra, h: LieAlgebra, module: str, n: int
) -> list[invariants.InvariantBasis]:
    """The invariant dimensions of ``invariants.module_space(h, module, k)``
    for k = 0..n against ``invariants.expected_invariant_dim(module, n, k)``;
    returns the invariant bases, indexed by k."""
    ks = range(0, n + 1)
    bases = [invariants.invariant_subspace(so, invariants.module_space(h, module, k)) for k in ks]
    got = [basis.dim for basis in bases]
    want = [invariants.expected_invariant_dim(module, n, k) for k in ks]
    reported = [(k, g) for k, g, e in zip(ks, got, want) if e is None]
    asserted_ok = all(e is None or g == e for g, e in zip(got, want))
    detail = f"k={list(ks)} computed={got} expected={['*' if e is None else e for e in want]}"
    if reported:
        suite.report(check_id + ".coincident", claim + " (coincident case, recorded)",
                     "; ".join(f"k={k}: dim={d} (expected 2, statement ambiguous)" for k, d in reported))
    suite.record(check_id, claim, asserted_ok, detail)
    return bases


def _claim_checks(sig: Signature, opts: HomologyOptions, suite: _Suite) -> Optional[int]:
    n, p = sig.n, sig.p
    h = build_affine(sig)
    so = build_so(sig)

    bases = {
        module: _dim_table(suite, check_id, claim, so, h, module, n)
        for check_id, module, claim in (
            ("invariants.wedge_table", "wedge", "invariants of the wedge powers of the translations "
             "are 1-dimensional at k=0 and k=n, zero otherwise"),
            ("invariants.vector_wedge_table", "I*wedge", "invariants of translations ⊗ wedge^k "
             "are 1-dimensional at k=1 and k=n-1, zero otherwise"),
            ("invariants.so_wedge_table", "so*wedge", "invariants of so ⊗ wedge^k "
             "are 1-dimensional at k=2 and k=n-2, zero otherwise"),
        )
    }
    suite.record(
        "invariants.adjoint_trivial",
        "the adjoint module of so(p,q) has no invariants",
        invariants.invariant_subspace(so, invariants.module_space(h, "so")).dim
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
        for name, k, power in (("rho", 2, "2"), ("gamma", n - 2, "(n-2)")):
            basis = bases["so*wedge"][k]
            suite.record(
                f"invariants.{name}_spans",
                f"the so ⊗ wedge^{power} invariant space is spanned by {name}",
                basis.dim == 1 and invariants.proportional(basis.basis[0], named[name]),
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
            results[resolved],
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
        for check_id, chain, bounds, claim in (
            ("complexes.gamma_homologous", gamma_tilde - gamma_bar, True,
             "gamma_tilde - gamma_bar is a boundary (the two classes agree in homology)"),
            ("complexes.alpha_tilde_not_boundary", alpha_tilde, False,
             "the antisymmetrized volume tensor is not a boundary (degree-n class is nonzero)"),
        ):
            try:
                witness = complexes.is_boundary(chain, cap_exact=opts.cap_exact)
            except CapExceededError as exc:
                suite.report(check_id, claim, f"not run: {exc}")
                continue
            found = witness is not None
            details = ("exact witness found" if found else "no witness") if bounds else ""
            suite.record(check_id, claim, found == bounds, details)

    # homology versus the predicted dimension series
    maxdeg = 4 if n == 4 else 3
    rep = homology_dims(h, maxdeg, options=opts)
    pred = predicted_hl_dims(sig, maxdeg)
    suite.record_table(
        "homology.matches_prediction",
        "Loday homology dimensions equal the predicted series (1 + t^n) * sum t^(k(n-1))",
        rep, rep.betti == pred,
        f"computed={rep.betti} predicted={pred} "
        f"certs={[rep.certificates[k].method for k in sorted(rep.certificates)]}",
    )
    dual = cohomology_dims(rep)
    suite.record_table(
        "homology.duality",
        "cohomology dimensions equal homology dimensions degreewise",
        rep, dual.betti == rep.betti, "",
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
