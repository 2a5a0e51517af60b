"""Unit tests for the frontier scheduling orders."""

import pytest

from repro.coanalysis.frontier import (FRONTIER_STRATEGIES,
                                       BreadthFirstFrontier,
                                       DepthFirstFrontier, make_frontier)
from repro.coanalysis.kernel import PendingPath
from repro.sim.state import SimState

import numpy as np


def path(tag):
    state = SimState(net_val=np.zeros(1, dtype=bool),
                     net_known=np.zeros(1, dtype=bool),
                     memories={}, cycle=tag, pc=None)
    return PendingPath(state)


def tags(paths):
    return [p.state.cycle for p in paths]


class TestMakeFrontier:
    def test_none_gives_dfs(self):
        assert isinstance(make_frontier(None), DepthFirstFrontier)

    def test_name_lookup(self):
        for name, cls in FRONTIER_STRATEGIES.items():
            assert isinstance(make_frontier(name), cls)

    def test_unknown_name_raises(self):
        # "novelty" names a retired third order
        for name in ("random", "novelty"):
            with pytest.raises(ValueError,
                               match="unknown frontier strategy"):
                make_frontier(name)

    def test_registry_names_match_classes(self):
        for name, cls in FRONTIER_STRATEGIES.items():
            assert cls.name == name


class TestDepthFirst:
    def test_lifo_order(self):
        f = DepthFirstFrontier()
        for tag in (1, 2, 3):
            f.push(path(tag))
        assert tags(f.pop_batch(None)) == [3, 2, 1]
        assert len(f) == 0

    def test_partial_pop(self):
        f = DepthFirstFrontier()
        for tag in (1, 2, 3):
            f.push(path(tag))
        assert tags(f.pop_batch(2)) == [3, 2]
        assert len(f) == 1

    def test_requeue_restores_schedule(self):
        f = DepthFirstFrontier()
        for tag in (1, 2, 3):
            f.push(path(tag))
        batch = f.pop_batch(2)
        f.requeue(batch)
        assert tags(f.pop_batch(None)) == [3, 2, 1]


class TestBreadthFirst:
    def test_fifo_order(self):
        f = BreadthFirstFrontier()
        for tag in (1, 2, 3):
            f.push(path(tag))
        assert tags(f.pop_batch(None)) == [1, 2, 3]

    def test_requeue_restores_schedule(self):
        f = BreadthFirstFrontier()
        for tag in (1, 2, 3):
            f.push(path(tag))
        batch = f.pop_batch(2)
        f.requeue(batch)
        assert tags(f.pop_batch(None)) == [1, 2, 3]


class TestEntriesRoundTrip:
    """entries() must list paths so that re-push reproduces the order."""

    @pytest.mark.parametrize("name", sorted(FRONTIER_STRATEGIES))
    def test_rebuild_preserves_schedule(self, name):
        f = make_frontier(name)
        for tag in (1, 2, 3, 4):
            f.push(path(tag))
        expected = tags(f.pop_batch(None))

        g = make_frontier(name)
        h = make_frontier(name)
        for tag in (1, 2, 3, 4):
            g.push(path(tag))
        for entry in g.entries():
            h.push(entry)
        assert tags(h.pop_batch(None)) == expected
