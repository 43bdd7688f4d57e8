"""Tests for cluster topology and rank management."""

import pytest

from repro.config import NIAGARA
from repro.errors import ConfigError, MatchingError
from repro.mpi import Cluster


def test_ranks_round_robin_nodes():
    cluster = Cluster(n_nodes=2)
    procs = cluster.ranks(4)
    assert [p.rank for p in procs] == [0, 1, 2, 3]
    assert [p.node_id for p in procs] == [0, 1, 0, 1]


def test_explicit_node_placement():
    cluster = Cluster(n_nodes=4)
    proc = cluster.add_process(node_id=3)
    assert proc.node_id == 3
    assert proc.rank == 0


def test_process_by_rank_bounds():
    cluster = Cluster(n_nodes=2)
    cluster.ranks(2)
    assert cluster.process_by_rank(1).rank == 1
    with pytest.raises(MatchingError):
        cluster.process_by_rank(2)
    with pytest.raises(MatchingError):
        cluster.process_by_rank(-1)


def test_world_size():
    cluster = Cluster(n_nodes=3)
    assert len(cluster.processes) == 0
    cluster.ranks(3)
    assert len(cluster.processes) == 3


def test_invalid_config_rejected_at_construction():
    bad = NIAGARA.with_changes(seed=-1)
    with pytest.raises(ConfigError):
        Cluster(n_nodes=1, config=bad)


def test_seed_controls_rng_streams():
    c1 = Cluster(n_nodes=1, config=NIAGARA.with_changes(seed=7))
    c2 = Cluster(n_nodes=1, config=NIAGARA.with_changes(seed=7))
    c3 = Cluster(n_nodes=1, config=NIAGARA.with_changes(seed=8))
    a = c1.rngs.stream("x").random(4).tolist()
    b = c2.rngs.stream("x").random(4).tolist()
    c = c3.rngs.stream("x").random(4).tolist()
    assert a == b
    assert a != c


def test_spawn_runs_generator():
    cluster = Cluster(n_nodes=1)

    def prog(env):
        yield env.timeout(1e-3)
        return "done"

    p = cluster.spawn(prog(cluster.env))
    cluster.run()
    assert p.value == "done"


def test_oversubscription_multiplier_applied():
    cluster = Cluster(n_nodes=2)
    proc = cluster.add_process()
    assert proc.software_cost(100e-9) == pytest.approx(100e-9)
    proc.sw_multiplier = 3.0
    assert proc.software_cost(100e-9) == pytest.approx(300e-9)
