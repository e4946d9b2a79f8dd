import numpy as np
import pytest

from cmtmimo import topology


def test_build_topology_bounds_and_diagonal():
    topo = topology.build_topology(7, 2, 0.1, 0.8, np.random.default_rng(0))
    g = topo.cross_gain
    assert g.shape == (7, 7, 2)
    assert topo.num_cells == 7
    assert topo.users_per_cell == 2
    diag = g[np.arange(7), np.arange(7), :]
    assert np.all(diag == 1.0)
    off = g[~np.eye(7, dtype=bool)]
    assert off.min() >= 0.1 and off.max() <= 0.8


def test_build_topology_rejects_bad_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        topology.build_topology(3, 1, 0.5, 0.2, rng)
    with pytest.raises(ValueError):
        topology.build_topology(3, 1, -0.1, 0.5, rng)
    with pytest.raises(ValueError):
        topology.build_topology(3, 1, 0.0, 1.5, rng)
    with pytest.raises(ValueError):
        topology.build_topology(0, 1, 0.0, 1.0, rng)


def test_explicit_topology_roundtrip():
    gains = np.full((2, 2, 1), 0.3)
    gains[np.arange(2), np.arange(2), :] = 1.0
    topo = topology.explicit_topology(gains)
    assert np.array_equal(topo.cross_gain, gains)


def test_explicit_topology_validates_invariants():
    bad_diag = np.full((2, 2, 1), 0.3)
    with pytest.raises(ValueError):
        topology.explicit_topology(bad_diag)
    out_of_range = np.full((2, 2, 1), 1.0)
    out_of_range[0, 1, 0] = 1.2
    with pytest.raises(ValueError):
        topology.explicit_topology(out_of_range)
    with pytest.raises(ValueError):
        topology.explicit_topology(np.ones((2, 3, 1)))


def test_gains_at_returns_receiving_column():
    gains = np.ones((3, 3, 2))
    gains[0, 1] = [0.5, 0.6]
    gains[2, 1] = [0.1, 0.2]
    topo = topology.explicit_topology(gains)
    at_1 = topo.gains_at(1)
    assert at_1.shape == (3, 2)
    assert np.array_equal(at_1[0], [0.5, 0.6])
    assert np.array_equal(at_1[1], [1.0, 1.0])
    assert np.array_equal(at_1[2], [0.1, 0.2])
    with pytest.raises(IndexError):
        topo.gains_at(3)
