"""The value classes: plain classes with the constructors, validation,
equality, hashing and immutability of the records they model."""

import importlib
import pkgutil

import pytest

import leibniz_homology
from leibniz_homology import (
    BettiEntry,
    BettiReport,
    BoostY,
    Chain,
    HomologyOptions,
    InvariantBasis,
    RankCertificate,
    RotationX,
    Signature,
    Space,
    Translation,
    ValidationReport,
    VerifyReport,
    build_abelian,
    build_affine,
    cohomology_dims,
    homology_dims,
    tensor_space,
)
from leibniz_homology._value import Frozen, Value
from leibniz_homology.complexes import BoundaryBlock
from leibniz_homology.homology import DEFAULT_CAP_EXACT
from leibniz_homology.liealg import GenericLabel
from leibniz_homology.split import SplitReduction, split_reduction
from leibniz_homology.verify import CheckResult

H22 = build_affine(Signature(2, 2))
RED = split_reduction(H22)
T2 = tensor_space(H22, 2)


def _bound(word):
    return {}


def _case(cls, kwargs, defaults=None, frozen=False, bad=None):
    """One class: its keyword arguments, the defaults of the arguments left
    out, whether it is frozen, and arguments that fail its validation."""
    return pytest.param(cls, kwargs, defaults or {}, frozen, bad, id=cls.__name__)


@pytest.mark.parametrize(
    "cls, kwargs, defaults, frozen, bad",
    [
        _case(Signature, {"p": 2, "q": 2}, frozen=True, bad={"p": 0}),
        _case(Translation, {"i": 1}, frozen=True),
        _case(RotationX, {"i": 1, "j": 2}, frozen=True),
        _case(BoostY, {"i": 1, "j": 3}, frozen=True),
        _case(GenericLabel, {"name": "x"}, frozen=True),
        _case(
            Space, {"algebra": H22, "kind": "tensor", "degree": 2, "factors": (0, 1)},
            {"lead": None}, frozen=True, bad={"kind": "cube"},
        ),
        _case(
            HomologyOptions, {}, {"cap_exact": DEFAULT_CAP_EXACT, "seed": 0}, frozen=True,
            bad={"cap_exact": -1},
        ),
        _case(
            SplitReduction,
            {"algebra": RED.algebra, "torus": RED.torus, "flips": RED.flips, "kept": RED.kept,
             "symmetries": RED.symmetries},
            frozen=True,
        ),
        _case(Chain, {"space": T2, "coeffs": {(0, 1): 2}}, bad={"coeffs": {(0, 1): 0.5}}),
        _case(InvariantBasis, {"space": T2, "basis": [], "dim": 0}, bad={"dim": 1}),
        _case(BoundaryBlock, {"grade": None, "colspace": T2, "rowspace": T2, "word_boundary": _bound}),
        _case(RankCertificate, {"rank": 3, "field": "Q", "method": "exact"}),
        _case(
            BettiEntry,
            {"degree": 1, "dim": 2, "rank_d_k": 0, "rank_d_k1": 0, "betti": 2, "certification": "exact"},
        ),
        _case(
            BettiReport,
            {"algebra": "a", "kind": "loday", "variant": "homology", "max_degree": 0, "entries": []},
            {"predicted": None, "matches": None, "certificates": {}, "environment": {},
             "capped_at": None, "cap_message": None, "reduction": None},
        ),
        _case(
            ValidationReport, {"algebra": "a", "antisymmetry_ok": True, "jacobi_ok": True},
            {"jacobi_failures": [], "antisymmetry_failures": [], "integral": None, "oracle_ok": None},
        ),
        _case(CheckResult, {"check_id": "c", "claim": "x", "status": "pass"}, {"details": ""}),
        _case(
            VerifyReport,
            {"suite": "paper", "signature": Signature(2, 2), "checks": [], "environment": {}},
            {"resolved_gamma_sign": None},
        ),
    ],
)
def test_value_semantics(cls, kwargs, defaults, frozen, bad):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    assert cls(*kwargs.values()) == a  # the parameters keep their order
    assert repr(a) == repr(b) and repr(a).startswith(f"{cls.__name__}(")
    for name, value in {**kwargs, **defaults}.items():
        assert getattr(a, name) == value
    for name, value in defaults.items():
        if isinstance(value, (list, dict)):
            assert getattr(a, name) is not getattr(b, name)
    name = next(iter(kwargs or defaults))
    if frozen:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        setattr(a, name, getattr(b, name))
    if bad is not None:
        with pytest.raises(ValueError):
            cls(**{**kwargs, **bad})


def test_hashes_are_the_hashes_of_the_field_tuples():
    # a one-field class hashes a 1-tuple, as a tuple of its fields would
    assert hash(Signature(2, 2)) == hash((2, 2))
    assert hash(Translation(3)) == hash((3,))
    assert hash(RotationX(1, 2)) == hash((1, 2)) == hash(BoostY(1, 2))
    assert hash(GenericLabel("x")) == hash(("x",))
    assert hash(T2) == hash((H22, "tensor", 2, T2.factors, None))


def _package_value_classes():
    for info in pkgutil.iter_modules(leibniz_homology.__path__):
        importlib.import_module(f"leibniz_homology.{info.name}")
    todo, seen = [Value], []
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("leibniz_homology.") and sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def test_value_classes_inherit_equality_and_hash():
    # equality and hash have one definition, in _value, over ``_fields``
    classes = _package_value_classes()
    assert {Signature, RotationX, Space, Chain, BoundaryBlock, CheckResult} <= set(classes)
    for cls in classes:
        if cls is not Frozen:
            assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls.__name__


def test_labels_compare_by_class_and_fields_and_do_not_sort():
    assert RotationX(1, 2) != BoostY(1, 2)
    assert Translation(1) != GenericLabel("d(1)") and Translation(1) != (1,)
    index = {RotationX(1, 2): 0, BoostY(1, 2): 1}
    assert index[BoostY(1, 2)] == 1 and index[RotationX(1, 2)] == 0
    with pytest.raises(TypeError):
        RotationX(1, 2) < RotationX(1, 3)


def test_split_reduction_compares_torus_flips_and_kept_only():
    other = SplitReduction(build_abelian(1), RED.torus, RED.flips, RED.kept, ())
    assert other == RED and hash(other) == hash(RED)
    assert "algebra" not in repr(RED) and "symmetries" not in repr(RED)


def test_cohomology_copies_each_entry():
    r = homology_dims(build_abelian(2), 2)
    c = cohomology_dims(r)
    assert c.entries == r.entries and c.entries[0] is not r.entries[0]
    assert (c.variant, r.variant) == ("cohomology", "homology")
