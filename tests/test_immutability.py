"""The immutable classes refuse every assignment and deletion.

Each expression node kind and each other immutable class of the package
is built once; assigning to any of its fields, deleting one, or adding a
new attribute raises ``AttributeError`` and leaves the instance as it was.
A copy of an instance, and a pickled expression tree or special dual
element, has the same fields.
"""

import copy
import pickle

import numpy as np
import pytest

from affgeo import symexpr as se
from affgeo.affine import AffineSpaceSpec, difference
from affgeo.brackets import Patch
from affgeo.duality import DualElement, HullPoint, SpecialAffineSpace, SpecialDualSpace
from affgeo.mechanics import NewtonSpaceTime, ObservedPhase, ObserverSplit
from affgeo.phase import AVMorphism, TimePhaseSpace, TwoForm, section_one_form

X, Y = se.Var("x"), se.Var("y")
# each expression node kind: the arguments it is built of, its fields in order
NODE_ARGS = {"Const": (2.0,), "Var": ("x",), "Add": (X, Y), "Sub": (X, Y), "Mul": (X, Y),
             "Div": (X, Y), "Pow": (X, 2), "Neg": (X,), "Call": ("sin", X)}


def _instances():
    """Each immutable class: one instance and the names of its fields."""
    space = AffineSpaceSpec(2)
    point = space.point([1.0, 2.0])
    st = NewtonSpaceTime(2)
    frame = st.rest_frame()
    patch = Patch.box(("x", "y"))
    return {
        "Const": (se.Const(2.0), ("value",)),
        "Var": (X, ("name",)),
        "Add": (se.Add(X, Y), ("left", "right")),
        "Sub": (se.Sub(X, Y), ("left", "right")),
        "Mul": (se.Mul(X, Y), ("left", "right")),
        "Div": (se.Div(X, Y), ("left", "right")),
        "Pow": (se.Pow(X, 2), ("base", "exponent")),
        "Neg": (se.Neg(X), ("operand",)),
        "Call": (se.Call("sin", X), ("func", "arg")),
        "VarContext": (se.VarContext(("x", "y")), ("names",)),
        "_Transition": (space._transition(space.reference), ("matrix", "offset")),
        "AffinePoint": (point, ("space", "chart", "coords")),
        "TangentVec": (difference(point, point), ("space", "chart", "components")),
        "DualElement": (DualElement(space, [1.0, 0.0], 0.5), ("space", "w", "c")),
        "SpecialDualElement": (
            SpecialDualSpace(SpecialAffineSpace(space, [0.0, 1.0])).element([3.0], -2.0),
            ("space", "w", "c", "special")),
        "HullPoint": (HullPoint.embed_point(point), ("space", "z", "lam")),
        "Patch": (patch, ("names", "low", "high")),
        "InertialFrame": (frame, ("spacetime", "u")),
        "ObservedPhase": (ObservedPhase(np.zeros(3), np.zeros(2), 0.0, frame),
                          ("x", "p", "s", "frame")),
        "ObserverSplit": (ObserverSplit.default(st), ("spacetime", "x0", "frame")),
        "AffineOneForm": (section_one_form(patch, se.mul(X, Y)), ("patch", "tag", "components")),
        "TwoForm": (TwoForm(("x", "y"), {(0, 1): X}), ("coords", "terms")),
        "TimePhaseSpace": (TimePhaseSpace(("q",), ("p",)), ("q", "p")),
        "AVMorphism": (AVMorphism({"x": X}, se.Var("r"), "r"),
                       ("base_map", "fiber_expr", "fiber_var")),
    }


CASES = [(kind, name) for kind, (_, names) in _instances().items() for name in names]


def test_every_node_kind_is_covered():
    kinds = {cls.__name__ for cls in vars(se).values()
             if isinstance(cls, type) and issubclass(cls, se.Expression)}
    assert kinds - {"Expression"} <= set(_instances()) and kinds - {"Expression"} == set(NODE_ARGS)
    # a fresh node holds its arguments as its fields, in __slots__ order; an
    # interior node's caches start empty, and a leaf never sets them
    for kind, args in NODE_ARGS.items():
        node = getattr(se, kind)(*args)
        caches = [getattr(node, name, "unset") for name in ("_partials", "_free")]
        assert (tuple(getattr(node, name) for name in type(node).__slots__), caches) \
            == (args, ["unset"] * 2 if kind in ("Const", "Var") else [None, None])


@pytest.mark.parametrize("kind, name", CASES, ids=[f"{k}.{n}" for k, n in CASES])
def test_a_field_can_be_neither_assigned_nor_deleted(kind, name):
    obj, _ = _instances()[kind]
    value = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, value)
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert getattr(obj, name) is value


@pytest.mark.parametrize("kind", sorted(_instances()))
def test_no_attribute_can_be_added(kind):
    obj, _ = _instances()[kind]
    with pytest.raises(AttributeError):
        obj.extra = 1.0
    assert not hasattr(obj, "extra")


@pytest.mark.parametrize("kind", sorted(_instances()))
def test_a_copy_has_the_same_fields(kind):
    obj, _ = _instances()[kind]
    twin = copy.copy(obj)
    assert type(twin) is type(obj) and repr(twin) == repr(obj)


def test_a_pickled_tree_is_an_equal_tree():
    e = se.parse("x*sin(y)^2 - -x/3 + 2", se.VarContext(("x", "y")))
    assert pickle.loads(pickle.dumps(e)) == e
    assert se.differentiate(pickle.loads(pickle.dumps(e)), "x") == se.differentiate(e, "x")


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_special_dual_element_is_rebuilt_from_its_special_space(clone):
    # it was rebuilt through __init__(space, w, c), but its __init__ takes the special space
    special = SpecialAffineSpace(AffineSpaceSpec(2), [0.0, 1.0])
    member = SpecialDualSpace(special).element([3.0], -2.0)
    twin = clone(member)
    assert type(twin) is type(member)
    assert (twin.w.tolist(), twin.c) == (member.w.tolist(), member.c) == ([3.0, 1.0], -2.0)
    assert twin.special.v.tolist() == [0.0, 1.0] and twin.space is twin.special.space
