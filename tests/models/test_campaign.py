"""Campaign-simulator tests: composition of the four dimensions."""

import numpy as np
import pytest

from repro.clustering import (
    PartitionCost,
    distributed_clustering,
    hierarchical_clustering,
    naive_clustering,
    size_guided_clustering,
)
from repro.commgraph import node_graph, paper_tsunami_matrix
from repro.core.query import query_for, run_query
from repro.machine import tsubame2_machine
from repro.models import CampaignConfig, CampaignResult, CampaignSimulator


@pytest.fixture(scope="module")
def machine():
    return tsubame2_machine(64, 16)


@pytest.fixture(scope="module")
def hierarchical(machine):
    g = paper_tsunami_matrix(iterations=5)
    ng = node_graph(g, machine.placement)
    return hierarchical_clustering(
        ng, machine.placement, cost=PartitionCost(1.0, 8.0)
    )


def fast_config(**kw):
    defaults = dict(
        horizon_s=7 * 24 * 3600.0,
        checkpoint_interval_s=1800.0,
        node_mtbf_s=0.25 * 365 * 24 * 3600.0,  # busy machine: ~7 failures/wk
    )
    defaults.update(kw)
    return CampaignConfig(**defaults)


def expected_waste(machine, config, clustering, *, n_campaigns, seed):
    """Mean waste over ``n_campaigns`` serial campaigns (the query path)."""
    query = query_for(
        machine,
        clustering,
        metric="expected_waste",
        campaign=config,
        n_campaigns=n_campaigns,
        seed=seed,
    )
    return run_query(query).value("expected_waste")


def pooled_waste(sim, clustering, *, n_campaigns, seed, workers):
    """Mean waste over a spawned-stream :meth:`CampaignSimulator.sweep`."""
    results = sim.sweep(
        [clustering], n_campaigns=n_campaigns, rng=seed, workers=workers
    )[clustering.name]
    return float(np.mean([r.waste_fraction for r in results]))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(horizon_s=0)
        with pytest.raises(ValueError):
            CampaignConfig(pfs_flush_every=0)
        with pytest.raises(ValueError):
            CampaignConfig(checkpoint_gb_per_node=-1)

    def test_nonfinite_rejected_naming_field(self):
        with pytest.raises(ValueError, match="horizon_s must be finite"):
            CampaignConfig(horizon_s=float("nan"))
        with pytest.raises(ValueError, match="checkpoint_interval_s must be finite"):
            CampaignConfig(checkpoint_interval_s=float("inf"))
        with pytest.raises(ValueError, match="pfs_flush_every"):
            CampaignConfig(pfs_flush_every=float("nan"))


class TestCosts:
    def test_checkpoint_cost_tracks_l2_size(self, machine, hierarchical):
        sim = CampaignSimulator(machine, fast_config())
        hier_cost = sim.checkpoint_cost_s(hierarchical)
        naive_cost = sim.checkpoint_cost_s(naive_clustering(1024, 32))
        # 4-wide vs 32-wide encoding: ~8x gap plus the shared SSD write.
        assert naive_cost > 4 * hier_cost

    def test_clustering_size_mismatch(self, machine):
        sim = CampaignSimulator(machine, fast_config())
        with pytest.raises(ValueError):
            sim.run(naive_clustering(64, 8))


class TestCampaigns:
    def test_deterministic_under_seed(self, machine, hierarchical):
        sim = CampaignSimulator(machine, fast_config())
        a = sim.run(hierarchical, rng=7)
        b = sim.run(hierarchical, rng=7)
        assert a == b

    def test_result_accounting(self, machine, hierarchical):
        sim = CampaignSimulator(machine, fast_config())
        r = sim.run(hierarchical, rng=3)
        assert r.total_waste_s == pytest.approx(
            r.checkpoint_overhead_s
            + r.rework_s
            + r.restore_s
            + r.catastrophic_penalty_s
        )
        assert 0.0 <= r.waste_fraction <= 1.0
        assert r.efficiency == pytest.approx(1.0 - r.waste_fraction)

    def test_hierarchical_wins_the_campaign(self, machine, hierarchical):
        """The composed end-to-end result: hierarchical wastes the least."""
        wastes = {}
        for clustering in [
            naive_clustering(1024, 32),
            size_guided_clustering(1024, 8),
            distributed_clustering(machine.placement, 16),
            hierarchical,
        ]:
            wastes[clustering.name] = expected_waste(
                machine, fast_config(), clustering, n_campaigns=3, seed=11
            )
        assert min(wastes, key=wastes.get) == "hierarchical-64-4"

    def test_fragile_clustering_pays_catastrophic_penalties(self, machine):
        """Size-guided-8 dies on ~every node failure: campaigns show
        catastrophic events and their PFS penalty."""
        sim = CampaignSimulator(machine, fast_config())
        r = sim.run(size_guided_clustering(1024, 8), rng=5)
        assert r.n_failures > 0
        assert r.n_catastrophic > 0
        assert r.catastrophic_penalty_s > 0

    def test_reliable_clustering_avoids_catastrophes(self, machine, hierarchical):
        sim = CampaignSimulator(machine, fast_config())
        total_cat = sum(
            sim.run(hierarchical, rng=seed).n_catastrophic
            for seed in range(5)
        )
        assert total_cat == 0

    def test_more_failures_more_waste(self, machine, hierarchical):
        calm = expected_waste(
            machine,
            fast_config(node_mtbf_s=20 * 365 * 24 * 3600.0),
            hierarchical,
            n_campaigns=3,
            seed=1,
        )
        busy = expected_waste(
            machine,
            fast_config(node_mtbf_s=0.05 * 365 * 24 * 3600.0),
            hierarchical,
            n_campaigns=3,
            seed=1,
        )
        assert busy > calm

    def test_expected_waste_validation(self, machine, hierarchical):
        with pytest.raises(ValueError):
            expected_waste(
                machine, fast_config(), hierarchical, n_campaigns=0, seed=0
            )


class TestParallelSweep:
    def test_sweep_worker_count_invariant(self, machine, hierarchical):
        """Child streams are keyed by (clustering, campaign) index, so the
        results are identical no matter how the pairs are scheduled."""
        sim = CampaignSimulator(machine, fast_config())
        clusterings = [naive_clustering(1024, 32), hierarchical]
        serial = sim.sweep(clusterings, n_campaigns=3, rng=13, workers=1)
        pooled = sim.sweep(clusterings, n_campaigns=3, rng=13, workers=2)
        assert serial.keys() == pooled.keys()
        for name in serial:
            assert serial[name] == pooled[name]

    def test_sweep_shape_and_types(self, machine, hierarchical):
        sim = CampaignSimulator(machine, fast_config())
        results = sim.sweep([hierarchical], n_campaigns=4, rng=2)
        assert set(results) == {hierarchical.name}
        assert len(results[hierarchical.name]) == 4
        assert all(
            isinstance(r, CampaignResult) for r in results[hierarchical.name]
        )

    def test_expected_waste_parallel_is_deterministic(self, machine, hierarchical):
        sim = CampaignSimulator(machine, fast_config())
        a = pooled_waste(sim, hierarchical, n_campaigns=4, seed=9, workers=2)
        b = pooled_waste(sim, hierarchical, n_campaigns=4, seed=9, workers=2)
        assert a == b
        assert 0.0 <= a <= 1.0

    def test_serial_path_unchanged_by_workers_param(self, machine, hierarchical):
        """The serial expected-waste query keeps the historical
        shared-generator draws."""
        sim = CampaignSimulator(machine, fast_config())
        from repro.util.rng import resolve_rng

        gen = resolve_rng(21)
        reference = float(
            np.mean(
                [sim.run(hierarchical, rng=gen).waste_fraction for _ in range(3)]
            )
        )
        assert expected_waste(
            machine, fast_config(), hierarchical, n_campaigns=3, seed=21
        ) == reference

    def test_parallel_statistically_consistent(self, machine, hierarchical):
        """Spawned-stream campaigns estimate the same quantity."""
        sim = CampaignSimulator(machine, fast_config())
        serial = expected_waste(
            machine, fast_config(), hierarchical, n_campaigns=8, seed=3
        )
        pooled = pooled_waste(sim, hierarchical, n_campaigns=8, seed=3, workers=2)
        assert pooled == pytest.approx(serial, rel=0.5, abs=0.02)

    def test_sweep_validation(self, machine, hierarchical):
        sim = CampaignSimulator(machine, fast_config())
        with pytest.raises(ValueError):
            sim.sweep([hierarchical], n_campaigns=0)
        with pytest.raises(ValueError):
            sim.sweep([hierarchical], workers=0)
        with pytest.raises(ValueError, match="unique"):
            sim.sweep([hierarchical, hierarchical], n_campaigns=1)
