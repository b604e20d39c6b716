"""Exact-arithmetic workbench for the Leibniz (co)homology of affine
indefinite orthogonal Lie algebras.

The package constructs so(p,q), the abelian algebra of translations and the
affine algebra h_n = I_n ⋊ so(p,q) as exact structure-constant tables,
computes invariant subspaces of their tensor/wedge modules, builds the named
invariant elements, assembles the Loday and Chevalley-Eilenberg complexes and
verifies the homology dimension claims by exact rank computations over Q.

Importing the package loads the engine only: ``liealg``, ``linalg``,
``repspace``, ``complexes``, ``homology`` and ``invariants``.  The
verification suites and the structure validators of ``verify`` are loaded on
the first lookup of one of their names here (``run_suite``, ``validate``,
...); ``split`` and ``rotations`` on the first reduced run.
"""

from .complexes import (
    CEBoundary,
    LodayBoundary,
    WedgeBoundary,
    embed_mixed_in_tensor,
    is_boundary,
    is_cycle,
)
from .homology import (
    BettiEntry,
    BettiReport,
    HomologyOptions,
    cohomology_dims,
    homology_dims,
    predicted_hl_dims,
)
from .invariants import (
    InvariantBasis,
    annihilated_by,
    expected_invariant_dim,
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
    proportional,
    resolve_gamma_tilde_sign,
)
from .liealg import (
    BasisLabel,
    BoostY,
    LieAlgebra,
    ModuleLawError,
    RotationX,
    Signature,
    Translation,
    build_abelian,
    build_affine,
    build_so,
)
from .linalg import (
    CapExceededError,
    ExactEliminator,
    RankCertificate,
    SparseModularEliminator,
    kernel_basis,
    solve,
)
from .repspace import (
    Chain,
    Space,
    SpaceMismatchError,
    act,
    act_word,
    assemble_action,
    mixed_space,
    random_chain,
    sort_wedge,
    tensor_space,
    tensor_to_wedge,
    wedge_space,
)

__version__ = "0.1.0"

# the names of ``verify``, imported on their first lookup (PEP 562)
_FROM_VERIFY = (
    "ValidationReport",
    "VerifyReport",
    "build_abelian_extension",
    "run_suite",
    "standard_translation_action",
    "validate",
)


def __getattr__(name: str):
    if name not in _FROM_VERIFY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify

    value = globals()[name] = getattr(verify, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_FROM_VERIFY})
