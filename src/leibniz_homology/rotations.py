"""The signed coordinate permutations in SO(p)×SO(q) that fix a chain.

A map e_k -> s_k·e_{perm[k]} of R^n with det +1 on the p-block and on the
q-block (``liealg.signed_rotations``) acts on ``build_affine(sig)`` and
``build_so(sig)`` by a signed permutation of the letters
(``liealg.letter_action``).  ``chain_symmetries`` finds those that fix a chain;
``complexes.is_boundary`` solves on the orbit sums under them and loads
this module on its first call, so importing the package does not load it.
"""

from __future__ import annotations

from math import prod
from typing import Mapping, Optional, Sequence

from .liealg import (
    Coeff, Grade, LieAlgebra, check_automorphism, is_canonical, letter_action, signed_rotations,
)
from .repspace import Symmetry

Word = tuple[int, ...]


def chain_symmetries(
    alg: LieAlgebra, by_grade: Mapping[Grade, Mapping[Word, Coeff]]
) -> Optional[list[Symmetry]]:
    """The letter actions of the ``liealg.signed_rotations`` that fix the
    chain ``by_grade`` (its components by grade) and each of its grades, one
    per letter permutation, the identity first; None when only the identity
    does or ``alg`` is not canonical (``liealg.is_canonical``).

    One sign vector s0 is tried per permutation that fixes the chain's
    parities.  Every other sign vector of it is s0·ε for a diagonal flip
    ε, which acts on a word by the product of ε_i over its parity bits, a
    scalar on each grade block.  So when s0 maps each component of the
    chain to λ_g = ±1 times itself, s0·ε fixes the chain for the flips ε
    with character λ_g on every grade g, and otherwise no sign vector
    does; elements of one permutation that fix the chain act alike on its
    grade blocks.  Each letter action used must pass
    ``liealg.check_automorphism`` and map every letter to one of its grade
    with the parity permuted, or ``ValueError`` is raised.
    """
    if not is_canonical(alg):
        return None
    bits = range(alg.sig.n)

    def permuted(perm: Sequence[int], mask: int) -> int:
        return sum(1 << perm[i] for i in bits if mask >> i & 1)

    def action(perm: Sequence[int], signs: Sequence[int]) -> Symmetry:
        sym = letter_action(alg, list(zip(perm, signs)))
        check_automorphism(alg, sym)
        for x, (count, mask) in enumerate(alg.grades):
            if alg.grades[sym[0][x]] != (count, permuted(perm, mask)):
                raise ValueError(f"the symmetry {sym} of {alg.name} moves the grade of {alg.labels[x]}")
        return sym

    def ratio(sym: Symmetry, coeffs: Mapping[Word, Coeff]) -> Optional[int]:
        """λ = ±1 with sym(coeffs) = λ·coeffs, or None."""
        perm, signs = sym
        lams = set()
        for w, c in coeffs.items():
            image = coeffs.get(tuple(map(perm.__getitem__, w)))
            s = prod(map(signs.__getitem__, w))
            lams.add(s if image == c else -s if image is not None and -image == c else 0)
        return lams.pop() if lams in ({1}, {-1}) else None

    found: dict[tuple[int, ...], Symmetry] = {}
    for perm, signings in signed_rotations(alg.sig):
        if any(permuted(perm, g[-1]) != g[-1] for g in by_grade):
            continue
        s0 = signings[0]
        sym = action(perm, s0)
        lams = {g: ratio(sym, coeffs) for g, coeffs in by_grade.items()}
        for signs in signings:
            flip = [signs[i] * s0[i] for i in bits]
            if all(prod(flip[i] for i in bits if g[-1] >> i & 1) == lam for g, lam in lams.items()):
                found.setdefault(sym[0], sym if signs == s0 else action(perm, signs))
                break
    return list(found.values()) if len(found) > 1 else None
