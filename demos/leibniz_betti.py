"""Tour 3: Leibniz homology of the affine algebra versus the predicted series.

The Loday complex of h_n is the chain of tensor powers with the boundary
d(h_1 ⊗ ... ⊗ h_k) = sum_{i<j} (-1)^j ... [h_i,h_j] ... ^h_j ...; the
homology is predicted to be (R ⊕ <alpha~>) ⊗ T(gamma~): dimension 1 in every
degree k(n-1) and k(n-1)+n, zero elsewhere.

The boundary splits into grade blocks by translation count, torus weight
and sign-flip parity of each word, on a basis that diagonalises the boosts
Y(i,p+i).  Every element acts trivially on homology, so every block of
nonzero torus weight is acyclic, and so is every block that a flip
commuting with the torus (in the identity component) negates.  The signed
permutations in SO(p)×SO(q) that map the split basis to itself up to sign
act trivially too, so only the orbit sums of the kept blocks under them
are ranked.  For h_4 that leaves 1,240 of the 10^5 columns of d_5 (4,992
in the kept blocks), ranked exactly over Q in a fraction of a second
(ranks are exact through 10^5 ranked columns, two-prime modular above).

The homologous-witness solve at the end exhibits an explicit preimage
showing that gamma~ and gamma_bar represent the same class.

Run:  python demos/leibniz_betti.py
"""

import time

from leibniz_homology import (
    Signature,
    build_abelian,
    build_affine,
    cohomology_dims,
    homology_dims,
    is_boundary,
    is_cycle,
    make_alpha_tilde,
    make_gamma_bar,
    make_gamma_tilde,
    predicted_hl_dims,
    resolve_gamma_tilde_sign,
)

print("Abelian sanity check: the boundary vanishes, so betti_k = (dim)^k")
rep = homology_dims(build_abelian(2), 3)
print(rep.table())
print()

sig = Signature(2, 2)
print(f"Predicted dimensions for h{sig} through degree 10:",
      predicted_hl_dims(sig, 10))
print()

t0 = time.time()
rep = homology_dims(build_affine(sig), 4)
print(rep.table())
print(f"(computed in {time.time()-t0:.1f}s; degree 4 needs the rank of d_5 on the "
      f"orbit sums of its kept blocks, {rep.certificates[5].rank}, exact over Q)")
print()

dual = cohomology_dims(rep)
print(f"cohomology table equals the homology table: {dual.betti == rep.betti}")
print()

print("Cycle structure behind the degree-3 and degree-4 classes:")
sign, _ = resolve_gamma_tilde_sign(sig)
gamma_bar = make_gamma_bar(sig)
gamma_tilde = make_gamma_tilde(sig, sign)
alpha_tilde = make_alpha_tilde(sig)
print(f"  gamma_bar is a cycle:            {is_cycle(gamma_bar)}")
print(f"  gamma~ is a cycle:               {is_cycle(gamma_tilde)}")
witness = is_boundary(gamma_tilde - gamma_bar)
print(f"  gamma~ - gamma_bar is a boundary: witness with {len(witness.coeffs)} words")
print(f"  alpha~ is a cycle:               {is_cycle(alpha_tilde)}")
print(f"  alpha~ is a boundary:            {is_boundary(alpha_tilde) is not None}"
      "  (so its class is nonzero in degree n)")
