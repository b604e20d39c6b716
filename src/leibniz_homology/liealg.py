"""Lie algebras of affine indefinite orthogonal type, as exact structure-constant tables.

Everything is built from the defining vector fields on R^n:

    X(i,j) = -x_i d/dx_j + x_j d/dx_i     (rotations, i<j within the p- or q-block)
    Y(i,j) =  x_i d/dx_j + x_j d/dx_i     (boosts, i <= p < j)
    d(i)   =  d/dx_i                      (translations)

X(i,j) and Y(i,j) are the wedges ±e_i ∧ e_j, u ∧ v acting by
x -> u B(v, x) - v B(u, x) (``wedge_field``); read off the Gram matrix of
another basis of R^n, the same formula gives the letters in its coordinates.

A vector field of polynomial degree <= 1 is stored as one sparse matrix M
over the coordinates x_0, ..., x_{n-1} and the constant x_n = 1:
M[(i, j)] is the coefficient of x_i d/dx_j, and row n holds the constant
part.  No column n is ever set, so the commutator of two such fields is
again of degree <= 1 and is the matrix commutator:

    [M, N] = MN - NM

and ``_structure_from_fields`` reads the constants of any basis off it;
those of so(p,q) and h_n = I_n ⋊ so(p,q) are exact integers.  Basis order is fixed:
translations by i, then X(i,j) lexicographic (p-block before q-block), then
Y(i,j) lexicographic.  The letters on another basis of R^n, and the
signed letter permutations of SO(p)×SO(q), are in ``rotations``.  The
structure validators (``validate``, ``build_abelian_extension``,
``standard_translation_action``) are in ``verify``, which no Betti table or
invariant computation loads.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Mapping, Optional, Sequence, Union

from ._value import Frozen

__all__ = [
    "Signature",
    "Translation",
    "RotationX",
    "BoostY",
    "GenericLabel",
    "BasisLabel",
    "LieAlgebra",
    "ModuleLawError",
    "build_abelian",
    "build_so",
    "build_affine",
]


class Signature(Frozen):
    """Signature (p, q) of the quadratic form sum x_i^2 (i<=p) - sum x_i^2 (i>p)."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if p < 1:
            raise ValueError("signature requires p >= 1")
        if q < 0:
            raise ValueError("signature requires q >= 0")
        self.__dict__.update(p=p, q=q)

    @property
    def n(self) -> int:
        return self.p + self.q

    def __str__(self) -> str:
        return f"({self.p},{self.q})"


# The basis labels.  Two labels are equal only if they have the same class
# and the same fields, so RotationX(1, 2) != BoostY(1, 2); they do not sort.


class Translation(Frozen):
    _fields = ("i",)

    def __init__(self, i: int) -> None:
        self.__dict__["i"] = i

    def __str__(self) -> str:
        return f"d({self.i})"


class _IndexPair(Frozen):
    _fields = ("i", "j")

    def __init__(self, i: int, j: int) -> None:
        self.__dict__.update(i=i, j=j)


class RotationX(_IndexPair):
    def __str__(self) -> str:
        return f"X({self.i},{self.j})"


class BoostY(_IndexPair):
    def __str__(self) -> str:
        return f"Y({self.i},{self.j})"


class GenericLabel(Frozen):
    """Opaque label for algebras not built from the canonical fields."""

    _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.__dict__["name"] = name

    def __str__(self) -> str:
        return self.name


BasisLabel = Union[Translation, RotationX, BoostY, GenericLabel]


def label_is_valid(label: BasisLabel, sig: Signature) -> bool:
    """Index-range check for canonical labels at the given signature."""
    n, p = sig.n, sig.p
    if isinstance(label, Translation):
        return 1 <= label.i <= n
    if isinstance(label, RotationX):
        i, j = label.i, label.j
        return (1 <= i < j <= p) or (p + 1 <= i < j <= n)
    if isinstance(label, BoostY):
        return 1 <= label.i <= p and p + 1 <= label.j <= n
    return False


def so_labels(sig: Signature) -> list[BasisLabel]:
    """X labels (p-block, then q-block) followed by Y labels, lexicographic."""
    p, n = sig.p, sig.n
    labels: list[BasisLabel] = []
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            labels.append(RotationX(i, j))
    for i in range(p + 1, n + 1):
        for j in range(i + 1, n + 1):
            labels.append(RotationX(i, j))
    for i in range(1, p + 1):
        for j in range(p + 1, n + 1):
            labels.append(BoostY(i, j))
    return labels


# ---------------------------------------------------------------------------
# Degree <= 1 polynomial vector fields as sparse matrices.

Coeff = Union[int, Fraction]
Matrix = dict[tuple[int, int], Coeff]


def _pair_sign(l: int, p: int) -> int:
    """The sign s with e_k ∧ e_l = s·(the X or Y label of the pair), 0-based
    k < l: the field of x -> e_k B(e_l, x) - e_l B(e_k, x) is X(k+1,l+1) in
    the p-block, and -X(k+1,l+1) in the q-block or -Y(k+1,l+1) across, so
    only l decides."""
    return 1 if l < p else -1


def wedge_field(a: int, c: int, gram: Sequence[Mapping[int, Coeff]], p: int) -> Matrix:
    """The field of the letter s·b_a ∧ b_c, s = ``_pair_sign(c, p)``, in the
    coordinates of a basis b of R^n, 0-based a < c: s·(x -> b_a B(b_c, x) -
    b_c B(b_a, x)), with B(b_i, b_j) = ``gram[i].get(j, 0)``.  On the
    standard basis it is X(a+1,c+1) or Y(a+1,c+1)."""
    s = _pair_sign(c, p)
    return {**{(i, a): s * v for i, v in gram[c].items()}, **{(i, c): -s * v for i, v in gram[a].items()}}


def field_of_label(label: BasisLabel, sig: Signature) -> Matrix:
    """The defining vector field of a canonical basis label (0-based keys),
    for X(i,j) and Y(i,j) the ``wedge_field`` on the standard Gram matrix.

    Each field is 1 at its largest key, its top entry, and no other field has
    that entry: (n, i-1) for d(i), since a translation is the only field with
    an entry in row n, and (j-1, i-1) for X(i,j) or Y(i,j), since the pair
    {i, j} belongs to exactly one X or Y field."""
    if not label_is_valid(label, sig):
        raise ValueError(f"label {label} is not valid for signature {sig}")
    if isinstance(label, Translation):
        return {(sig.n, label.i - 1): 1}
    p = sig.p  # the standard Gram matrix is diag(1^p, (-1)^q)
    return wedge_field(label.i - 1, label.j - 1, [{k: 1 if k < p else -1} for k in range(sig.n)], p)


def _mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    """AB - BA of two sparse matrices: the bracket of two fields."""
    out: dict[tuple[int, int], Coeff] = {}
    for (i, k), va in a.items():
        for (k2, j), vb in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + va * vb
    for (i, k), vb in b.items():
        for (k2, j), va in a.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) - vb * va
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------

Grade = tuple[int, ...]  # (translation count, torus weights..., parity bitmask)


def add_grades(g: Grade, h: Grade) -> Grade:
    """The grade of a bracket term: counts and weights add, parities XOR."""
    return (*map(add, g[:-1], h[:-1]), g[-1] ^ h[-1])


def accumulate(out: dict, key, v: Coeff) -> None:
    """``out[key] += v``, deleting the key when the sum is zero."""
    nv = out.get(key, 0) + v
    if nv:
        out[key] = nv
    elif key in out:
        del out[key]


class LieAlgebra:
    """Ordered basis plus sparse structure constants.

    ``structure[(a, b)]`` is the sparse vector of [e_a, e_b]; both orders are
    stored, so antisymmetry is a checkable invariant rather than a storage
    convention.  ``grades`` give each basis element a grade
    (c, w_1, ..., w_r, s), all of one length: a translation count c in
    {0, 1}, r >= 0 integer torus weights and a parity bitmask s (all (0, 0)
    when omitted).  Every bracket term of [e_a, e_b] has grade
    ``add_grades(grade_a, grade_b)``: counts and weights add, parities XOR,
    so the brackets of two count-1 elements vanish; a table that breaks the
    grading raises ``ValueError``.  The affine algebras give T_i the grade
    (1, bit i-1) and X(i,j), Y(i,j) the grade (0, bits i-1 and j-1): each is
    an eigenvector of the diagonal sign flips, with the parity vector as its
    character.  Their split forms (``split.split_form``) add the torus
    weights.
    """

    def __init__(
        self,
        labels: Sequence[BasisLabel],
        structure: Mapping[tuple[int, int], Mapping[int, Coeff]],
        *,
        grades: Optional[Sequence[Grade]] = None,
        sig: Optional[Signature] = None,
        name: str = "lie-algebra",
    ) -> None:
        self.labels: tuple[BasisLabel, ...] = tuple(labels)
        self.dim: int = len(self.labels)
        self.structure: dict[tuple[int, int], dict[int, Coeff]] = {
            pair: {c: v for c, v in vec.items() if v} for pair, vec in structure.items()
        }
        self.structure = {pair: vec for pair, vec in self.structure.items() if vec}
        self.grades: tuple[Grade, ...] = (
            tuple(tuple(g) for g in grades) if grades is not None else ((0, 0),) * self.dim
        )
        self.sig = sig
        self.name = name
        self._index: dict[BasisLabel, int] = {lab: k for k, lab in enumerate(self.labels)}
        if len(self._index) != self.dim:
            raise ValueError("duplicate basis labels")
        self._check_grading()

    def _check_grading(self) -> None:
        grades = self.grades
        if len(grades) != self.dim:
            raise ValueError(f"{len(grades)} grades for a {self.dim}-dimensional algebra")
        width = len(grades[0]) if grades else 2
        for g in grades:
            if (
                len(g) != width
                or width < 2
                or not all(isinstance(x, int) for x in g)
                or g[0] not in (0, 1)
                or g[-1] < 0
            ):
                raise ValueError(
                    "a grade is (count in {0, 1}, torus weights..., parity bitmask >= 0), "
                    f"all of length {width}, got {g}"
                )
        for (a, b), vec in self.structure.items():
            want = add_grades(grades[a], grades[b])
            for c in vec:
                if grades[c] != want:
                    raise ValueError(
                        f"[{self.labels[a]}, {self.labels[b]}] has the term {self.labels[c]} "
                        f"of grade {grades[c]}, not {want}"
                    )

    # -- basic queries ------------------------------------------------------

    def index(self, label: BasisLabel) -> int:
        return self._index[label]

    def bracket(self, a: int, b: int) -> dict[int, Coeff]:
        """Sparse coefficient vector of [e_a, e_b]."""
        return self.structure.get((a, b), {})

    @property
    def translation_indices(self) -> tuple[int, ...]:
        return tuple(k for k, lab in enumerate(self.labels) if isinstance(lab, Translation))

    @property
    def so_indices(self) -> tuple[int, ...]:
        return tuple(
            k for k, lab in enumerate(self.labels) if isinstance(lab, (RotationX, BoostY))
        )

    def copy(self) -> "LieAlgebra":
        return copy.deepcopy(self)

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name}, dim={self.dim})"


# ---------------------------------------------------------------------------
# Constructors.


def _structure_from_fields(
    fields: Sequence[Matrix], names: Sequence[BasisLabel]
) -> dict[tuple[int, int], dict[int, Coeff]]:
    """The structure constants of the ``fields``, each with a top entry, its
    largest key, that no other field has.  A bracket's coefficient on a field
    is its value at that field's top entry over the field's own value there,
    an ``int`` when that divides; raises ``ValueError`` naming the pair by
    ``names`` when the combination so read is not the bracket, which then
    leaves the fields' span."""
    top = {max(fld): (c, fld[max(fld)]) for c, fld in enumerate(fields)}
    structure: dict[tuple[int, int], dict[int, Coeff]] = {}
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            br = _mat_commutator(fields[a], fields[b])
            vec = {c: Fraction(v, t) if v % t else v // t
                   for key, v in br.items() if key in top for c, t in [top[key]]}
            rebuilt: Matrix = {}
            for c, v in vec.items():
                for key, w in fields[c].items():
                    accumulate(rebuilt, key, v * w)
            if rebuilt != br:
                raise ValueError(f"the bracket [{names[a]}, {names[b]}] leaves the span of the labels")
            if vec:
                structure[(a, b)] = vec
                structure[(b, a)] = {c: -v for c, v in vec.items()}
    return structure


def _label_grade(label: BasisLabel) -> Grade:
    """(1, bit i-1) for T_i; (0, bits i-1 and j-1) for X(i,j) and Y(i,j)."""
    if isinstance(label, Translation):
        return 1, 1 << (label.i - 1)
    return 0, (1 << (label.i - 1)) | (1 << (label.j - 1))


@lru_cache(maxsize=None)
def build_abelian(n: int) -> LieAlgebra:
    """The abelian algebra I_n of translations; every bracket is zero."""
    if n < 1:
        raise ValueError("build_abelian requires n >= 1")
    labels = [Translation(i) for i in range(1, n + 1)]
    return LieAlgebra(labels, {}, grades=[_label_grade(lab) for lab in labels], name=f"I_{n}")


@lru_cache(maxsize=None)
def build_so(sig: Signature) -> LieAlgebra:
    """so(p,q) on the rotation/boost basis, structure constants from the fields."""
    if sig.n < 2:
        raise ValueError("build_so requires n >= 2")
    labels = so_labels(sig)
    structure = _structure_from_fields([field_of_label(lab, sig) for lab in labels], labels)
    grades = [_label_grade(lab) for lab in labels]
    return LieAlgebra(labels, structure, grades=grades, sig=sig, name=f"so{sig}")


@lru_cache(maxsize=None)
def build_affine(sig: Signature) -> LieAlgebra:
    """h_n = I_n ⋊ so(p,q): translations first, then the so(p,q) basis."""
    if sig.n < 2:
        raise ValueError("build_affine requires n >= 2")
    labels: list[BasisLabel] = [Translation(i) for i in range(1, sig.n + 1)]
    labels += so_labels(sig)
    structure = _structure_from_fields([field_of_label(lab, sig) for lab in labels], labels)
    grades = [_label_grade(lab) for lab in labels]
    return LieAlgebra(labels, structure, grades=grades, sig=sig, name=f"h{sig}")


def is_canonical(alg: LieAlgebra) -> bool:
    """Whether ``alg`` equals ``build_affine(alg.sig)`` or ``build_so(alg.sig)``
    in labels, grades and structure constants (a ``sig=None`` copy is not)."""
    sig = alg.sig
    if sig is None or sig.n < 2:
        return False
    ref = build_affine(sig) if alg.translation_indices else build_so(sig)
    return (alg.labels, alg.grades, alg.structure) == (ref.labels, ref.grades, ref.structure)


def structure_triples(alg: LieAlgebra) -> frozenset[tuple[int, int, int, Coeff]]:
    """The triples (x, y, c, v) with v the coefficient of e_c in [e_x, e_y]."""
    return frozenset((x, y, c, v) for (x, y), vec in alg.structure.items() for c, v in vec.items())


def check_automorphism(
    alg: LieAlgebra,
    sym: tuple[Sequence[int], Sequence[int]],
    triples: Optional[frozenset[tuple[int, int, int, Coeff]]] = None,
) -> None:
    """Raises ``ValueError`` unless e_x -> signs[x]·e_{perm[x]}, with
    ``sym = (perm, signs)``, is an automorphism of ``alg``.  ``triples`` is
    ``structure_triples(alg)``, built here when not given; a caller checking
    many maps builds it once."""
    perm, signs = sym
    if sorted(perm) != list(range(alg.dim)):
        raise ValueError(f"the symmetry {sym} of {alg.name} is no permutation of the letters")
    if triples is None:
        triples = structure_triples(alg)
    # the map is injective on triples, so an image equal to the set means the
    # bracket of every pair of letters maps to the bracket of its image pair
    if {(perm[x], perm[y], perm[c], signs[x] * signs[y] * signs[c] * v) for x, y, c, v in triples} == triples:
        return
    # name the first stored pair whose bracket does not map to its image
    # pair's; one exists, since a bijection mapping the stored pairs into,
    # hence onto, themselves maps zero brackets to zero brackets
    x, y = next(
        (x, y) for (x, y), vec in alg.structure.items()
        if {perm[c]: signs[c] * v for c, v in vec.items()}
        != {c: signs[x] * signs[y] * v for c, v in alg.bracket(perm[x], perm[y]).items()}
    )
    raise ValueError(f"the symmetry {sym} of {alg.name} is no automorphism: "
                     f"[{alg.labels[x]}, {alg.labels[y]}]")


class ModuleLawError(ValueError):
    """Raised when proposed action matrices do not define a Lie module."""

    def __init__(self, pair: tuple[BasisLabel, BasisLabel], message: str) -> None:
        self.pair = pair
        super().__init__(f"module law fails at pair {pair[0]}, {pair[1]}: {message}")

