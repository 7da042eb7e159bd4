import numpy as np
import pytest

from oracles import charpoly_eigenvalues
from safe_containment.topology import (
    Topology,
    TopologyError,
    build_phi_family,
    check_reachability,
)


def test_single_pinned_follower():
    top = Topology(adjacency=np.zeros((1, 1)), pinning=np.array([[1.0]]))
    fam = build_phi_family(top)
    assert fam.laplacian == pytest.approx(np.array([[0.0]]))
    assert fam.phi == pytest.approx(np.array([[[1.0]]]))
    assert fam.phi_sum == pytest.approx(np.array([[1.0]]))


def test_default_scenario_phi_sum_eigenvalues_positive(paper_scenario):
    fam = build_phi_family(paper_scenario.topology)
    eigs = charpoly_eigenvalues(fam.phi_sum)
    assert np.all(eigs.real > 0)
    # ring of 4 with unit pinning on every follower: L + I has spectrum
    # {1, 3, 3, 5}; the double root limits the polynomial oracle to
    # sqrt(eps) accuracy
    assert np.sort(eigs.real) == pytest.approx([1.0, 3.0, 3.0, 5.0], abs=1e-6)
    assert np.max(np.abs(eigs.imag)) < 1e-10


def test_phi_construction_matches_definition(paper_scenario):
    top = paper_scenario.topology
    fam = build_phi_family(top)
    m = top.n_leaders
    lap = np.diag(top.adjacency.sum(axis=1)) - top.adjacency
    assert fam.laplacian == pytest.approx(lap)
    for r in range(m):
        assert fam.phi[r] == pytest.approx(
            lap / m + np.diag(top.pinning[r])
        )
    assert fam.phi_sum == pytest.approx(fam.phi.sum(axis=0))


def test_unreachable_follower_rejected_by_name():
    # the second follower has no in-edges and no pinning; the error numbers
    # followers from 1, as the other violations of a scenario do
    adj = np.array([[0.0, 0, 0], [0, 0, 0], [1, 0, 0]])
    pin = np.array([[1.0, 0, 0]])
    top = Topology(adjacency=adj, pinning=pin)
    with pytest.raises(TopologyError, match=r"\[2\]"):
        build_phi_family(top)


def test_a_singular_phi_sum_is_a_topology_error(paper_scenario):
    # the paper's ring weighted 1e300 over unit pinning: the sum of Phi_r
    # is singular to working precision, and its solve meets a zero pivot
    top = paper_scenario.topology
    heavy = Topology(adjacency=top.adjacency * 1e300, pinning=top.pinning)
    with pytest.raises(TopologyError, match="sum of Phi_r is singular"):
        build_phi_family(heavy)


def test_reachability_fully_pinned():
    top = Topology(adjacency=np.zeros((3, 3)), pinning=np.ones((1, 3)))
    assert check_reachability(top) == set()


def test_reachability_chain_through_followers():
    # follower 0 pinned; 1 listens to 0; 2 listens to 1
    adj = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    pin = np.array([[1.0, 0, 0]])
    top = Topology(adjacency=adj, pinning=pin)
    assert check_reachability(top) == set()


def test_reachability_along_the_longest_chain_and_not_into_a_cycle():
    # 64 followers in a chain pinned only at its far end: follower i
    # listens to i + 1, so follower 0 is reached only in round N - 1 = 63
    n = 64
    chain = np.eye(n, k=1)
    pin = np.zeros((1, n))
    pin[0, -1] = 1.0
    assert check_reachability(Topology(adjacency=chain, pinning=pin)) == set()
    # beside it, three followers that listen only to each other in a cycle
    # are reached in no round
    adj = np.zeros((n + 3, n + 3))
    adj[:n, :n] = chain
    adj[n:, n:] = np.roll(np.eye(3), 1, axis=1)
    top = Topology(adjacency=adj, pinning=np.pad(pin, ((0, 0), (0, 3))))
    assert check_reachability(top) == {n, n + 1, n + 2}


def test_reachability_isolated_follower():
    adj = np.zeros((2, 2))
    pin = np.array([[1.0, 0.0]])
    top = Topology(adjacency=adj, pinning=pin)
    assert check_reachability(top) == {1}


def test_invalid_topologies_rejected():
    with pytest.raises(TopologyError):
        Topology(adjacency=np.array([[1.0]]), pinning=np.array([[1.0]]))
    with pytest.raises(TopologyError):
        Topology(adjacency=np.array([[0.0, -1], [0, 0]]),
                 pinning=np.array([[1.0, 1]]))
    with pytest.raises(TopologyError):
        Topology(adjacency=np.zeros((2, 2)), pinning=np.array([[-1.0, 0]]))
    with pytest.raises(TopologyError):
        Topology(adjacency=np.zeros((2, 3)), pinning=np.array([[1.0, 1]]))


def test_random_admissible_topologies_well_posed():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        adj = rng.uniform(0, 1, (n, n)) * (rng.uniform(0, 1, (n, n)) < 0.5)
        np.fill_diagonal(adj, 0.0)
        pin = rng.uniform(0, 1, (m, n)) * (rng.uniform(0, 1, (m, n)) < 0.5)
        top = Topology(adjacency=adj, pinning=pin)
        if check_reachability(top):
            with pytest.raises(TopologyError):
                build_phi_family(top)
            continue
        fam = build_phi_family(top)
        eigs = charpoly_eigenvalues(fam.phi_sum)
        assert np.all(eigs.real > 0)
        assert np.linalg.svd(fam.phi_sum, compute_uv=False)[-1] > 0


def test_build_phi_family_pure(paper_scenario):
    top = paper_scenario.topology
    before = top.adjacency.copy()
    a = build_phi_family(top)
    b = build_phi_family(top)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.phi_sum, b.phi_sum)
    assert np.array_equal(top.adjacency, before)
