"""The argument checkers of ``errors``: each returns its declared type or raises
a DomainError naming the argument, whatever it is given, and no other module
of the package spells out a type policy of its own."""

import ast
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sketch_infer.errors import (
    DomainError,
    _finite_real,
    _float_vector,
    _index,
    _integer,
    _probability,
    _real,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sketch_infer"
NAME = "the argument"

# values a caller can pass where a count, an index, a real or a probability
# belongs: non-finite, bool, integral and fractional floats, numpy scalars,
# fractions, strings, None and integers beyond double precision
ADVERSARIAL = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, 100.0, -0.0, 0.5,
                     10 ** 400, -10 ** 400, Fraction(10 ** 400, 3), np.True_, np.False_]),
    st.fractions(),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)


def _named(call):
    """``call()``, or None where it raised a DomainError naming the argument."""
    try:
        return call()
    except DomainError as exc:
        assert str(exc).startswith(f"{NAME} "), str(exc)
        return None


@given(ADVERSARIAL, st.sampled_from([None, 0, 1]))
def test_integer(value, least):
    out = _named(lambda: _integer(NAME, value, least))
    if out is not None:
        assert type(out) is int and out == value
        assert least is None or out >= least


@given(ADVERSARIAL, st.integers(1, 5))
def test_index(value, p):
    out = _named(lambda: _index(NAME, value, p))
    if out is not None:
        assert type(out) is int and out == value and 0 <= out < p


@given(ADVERSARIAL, st.booleans())
def test_real(value, nonnegative):
    out = _named(lambda: _real(NAME, value, nonnegative))
    if out is not None:
        assert type(out) is float and out == float(value) and math.isfinite(out)
        assert out >= 0.0 if nonnegative else out > 0.0


@given(ADVERSARIAL)
def test_finite_real(value):
    out = _named(lambda: _finite_real(NAME, value))
    if out is not None:
        assert type(out) is float and out == float(value) and math.isfinite(out)


@given(ADVERSARIAL)
def test_probability(value):
    out = _named(lambda: _probability(NAME, value))
    if out is not None:
        assert type(out) is float and out == float(value) and 0.0 < out < 1.0


@given(st.one_of(ADVERSARIAL, st.lists(ADVERSARIAL, max_size=4),
                 st.lists(st.lists(ADVERSARIAL, max_size=2), max_size=2)), st.integers(0, 4))
def test_float_vector(value, p):
    out = _named(lambda: _float_vector(NAME, value, p))
    if out is not None:
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (p,)


@pytest.mark.parametrize("value", [True, np.True_, 1.0, 2.5, "1", None, Fraction(1, 2)])
def test_integer_refuses_what_is_no_integer(value):
    with pytest.raises(DomainError, match=f"^{NAME} takes an integer, got "):
        _integer(NAME, value)


# ---------------------------------------------------------------------------
# one vocabulary: no module but errors.py names a type policy
# ---------------------------------------------------------------------------

_POLICY_ATTRIBUTES = {("numbers", "Integral"), ("numbers", "Real"), ("np", "integer"),
                      ("numpy", "integer")}


def _names_bool(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "bool") or (
        isinstance(node, ast.Tuple) and any(_names_bool(e) for e in node.elts))


def _spells_policy(node) -> bool:
    """Whether an ast node names numbers.Integral, numbers.Real or
    np.integer, or is an isinstance test against bool."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr) in _POLICY_ATTRIBUTES
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return any((node.module, alias.name) in _POLICY_ATTRIBUTES for alias in node.names)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "isinstance" and len(node.args) == 2 and _names_bool(node.args[1])
    return False


@pytest.mark.parametrize("code,found", [
    ("isinstance(k, numbers.Integral)", True),
    ("ok = isinstance(x, numbers.Real) and x > 0", True),
    ("isinstance(k, (int, np.integer))", True),
    ("isinstance(k, bool)", True),
    ("isinstance(k, (bool, np.bool_))", True),
    ("from numbers import Integral", True),
    ("def f(x):\n    return not isinstance(x, bool)", True),
    ("type(k) is int", False),
    ("isinstance(value, (np.ndarray, np.generic))", False),
    ("from .errors import _integer", False),
    ("kind = {bool: 'a boolean'}", False),
])
def test_guard_sees_every_policy_form(code, found):
    assert any(map(_spells_policy, ast.walk(ast.parse(code)))) is found


def test_only_errors_spells_a_type_policy():
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if _spells_policy(node)]
    assert offenders == []
