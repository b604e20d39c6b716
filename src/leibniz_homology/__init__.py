"""Exact-arithmetic workbench for the Leibniz (co)homology of affine
indefinite orthogonal Lie algebras.

The package constructs so(p,q), the abelian algebra of translations and the
affine algebra h_n = I_n ⋊ so(p,q) as exact structure-constant tables,
computes invariant subspaces of their tensor/wedge modules, builds the named
invariant elements, assembles the Loday and Chevalley-Eilenberg complexes and
verifies the homology dimension claims by exact rank computations over Q.
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
    ValidationReport,
    build_abelian,
    build_abelian_extension,
    build_affine,
    build_so,
    standard_translation_action,
    validate,
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
from .verify import VerifyReport, run_suite

__version__ = "0.1.0"
