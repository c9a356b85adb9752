import importlib

import pytest

from catnorm import DependencySet, SchemaError, chase, chase_implies, fd, mvd
from catnorm.chase import ChaseLimitExceeded


def test_fd_mvd_interaction():
    # X ->> Z together with an FD into Z yields an FD
    deps = DependencySet(fds=(fd("B", "C"),), mvds=(mvd("A", "B", "U"),))
    assert chase_implies(deps, fd("A", "C"), {"A", "B", "C"})


def test_reflexive_fd():
    assert chase_implies(DependencySet(), fd("AB", "A"), {"A", "B", "C"})


def test_fd_promotes_to_mvd():
    deps = DependencySet(fds=(fd("A", "B"),))
    assert chase_implies(deps, mvd("A", "B", "U"), {"A", "B", "C"})


def test_trivial_mvd():
    assert chase_implies(DependencySet(), mvd("AB", "B", "U"), {"A", "B", "C"})


def test_complement():
    deps = DependencySet(mvds=(mvd("A", "B", "U"),))
    assert chase_implies(deps, mvd("A", ["C", "D"], "U"),
                         {"A", "B", "C", "D"})


def test_mvd_transitivity():
    deps = DependencySet(mvds=(mvd("A", "B", "U"), mvd("B", "C", "U")))
    assert chase_implies(deps, mvd("A", "C", "U"), {"A", "B", "C"})


def test_non_implication():
    deps = DependencySet(fds=(fd("B", "C"),))
    assert not chase_implies(deps, fd("A", "C"), {"A", "B", "C"})
    assert not chase_implies(deps, mvd("A", "B", "U"), {"A", "B", "C"})


def test_chase_initial_rows_disagree_off_lhs():
    rows, r1, r2, attrs = chase(DependencySet(), {"A"}, {"A", "B"})
    idx = {a: i for i, a in enumerate(attrs)}
    assert r1[idx["A"]] == r2[idx["A"]]
    assert r1[idx["B"]] != r2[idx["B"]]
    assert rows == {r1, r2}


def test_universe_bound():
    universe = {f"A{i}" for i in range(13)}
    with pytest.raises(SchemaError, match="bound"):
        chase(DependencySet(), {"A0"}, universe)


def test_lhs_outside_universe():
    with pytest.raises(SchemaError):
        chase(DependencySet(), {"Z"}, {"A", "B"})


def test_row_cap_is_an_error(monkeypatch):
    # the package exports the function `chase` under the module's name
    monkeypatch.setattr(importlib.import_module("catnorm.chase"),
                        "DEFAULT_ROW_LIMIT", 4)
    attrs = [f"A{i}" for i in range(6)]
    deps = DependencySet(mvds=tuple(
        mvd([attrs[i]], [attrs[i + 1]], "U") for i in range(5)))
    with pytest.raises(ChaseLimitExceeded):
        chase(deps, {attrs[0]}, set(attrs))


def test_context_relativization():
    # an MVD bound to another context does not participate
    deps = DependencySet(mvds=(mvd("A", "B", "V"),))
    rows, _, _, _ = chase(deps, {"A"}, {"A", "B", "C"}, context="U")
    assert len(rows) == 2
