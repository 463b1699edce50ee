"""ReliabilityQuery API tests: validation, wire format, exact equivalence.

The query layer promises *bit-equality* — same seed, same draws, same
floats — so the equivalence tests here assert ``==``, not ``approx``, and
the golden pins compare exact wire strings.
"""

import pickle
from dataclasses import replace

import pytest

from repro.clustering import (
    distributed_clustering,
    naive_clustering,
    size_guided_clustering,
)
from repro.core import paper_scenario
from repro.core.query import (
    ClusteringSpec,
    MachineSpec,
    QueryResult,
    ReliabilityQuery,
    assemble_streamed,
    build_tables,
    iter_waste_curve,
    query_for,
    resolve_query,
    run_query,
)
from repro.failures.catastrophic import rs_half_tolerance, xor_tolerance
from repro.models import CampaignConfig, CampaignSimulator


@pytest.fixture(scope="module")
def scenario():
    return paper_scenario(iterations=5)


def small_query(**kw):
    defaults = dict(
        metric="montecarlo",
        machine=MachineSpec(nnodes=8, procs_per_node=2),
        clustering=ClusteringSpec(strategy="naive", cluster_size=4),
        n_samples=200,
        seed=3,
    )
    defaults.update(kw)
    return ReliabilityQuery(**defaults)


class TestValidation:
    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            small_query(metric="nope")

    def test_unknown_encoding(self):
        with pytest.raises(ValueError, match="encoding"):
            small_query(encoding="raid5")

    def test_campaign_metrics_require_rs(self):
        with pytest.raises(ValueError, match="rs"):
            small_query(metric="expected_waste", encoding="xor")

    def test_seed_must_be_int(self):
        with pytest.raises(ValueError):
            small_query(seed=1.5)
        with pytest.raises(ValueError):
            small_query(seed=True)

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            small_query(n_samples=0)
        with pytest.raises(ValueError):
            small_query(metric="expected_waste", n_campaigns=0)

    def test_waste_curve_needs_sweep(self):
        with pytest.raises(ValueError, match="sweep"):
            small_query(metric="waste_curve")

    def test_sweep_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            small_query(
                metric="waste_curve", sweep=(600.0, float("nan"))
            )

    def test_survival_sweep_must_be_integral(self):
        with pytest.raises(ValueError):
            small_query(metric="survival", sweep=(1.0, 2.5))

    def test_labels_strategy_requires_labels(self):
        with pytest.raises(ValueError):
            ClusteringSpec(strategy="labels")
        with pytest.raises(ValueError):
            ClusteringSpec(strategy="naive", l1=(0, 0, 1, 1))

    def test_machine_preset_checked(self):
        with pytest.raises(ValueError):
            MachineSpec(preset="bluegene")

    def test_clustering_length_checked_at_build(self):
        machine = MachineSpec(nnodes=8, procs_per_node=2)
        spec = ClusteringSpec(strategy="labels", l1=(0, 1))
        query = small_query(machine=machine, clustering=spec)
        with pytest.raises(ValueError):
            build_tables(query)


class TestWireFormat:
    def test_json_roundtrip(self):
        query = small_query(
            metric="waste_curve", sweep=(600.0, 1200.0), n_campaigns=2
        )
        again = ReliabilityQuery.from_json(query.to_json())
        assert again == query

    def test_labels_roundtrip(self):
        spec = ClusteringSpec(
            strategy="labels", name="custom", l1=tuple([0] * 8 + [1] * 8)
        )
        query = small_query(clustering=spec)
        assert ReliabilityQuery.from_json(query.to_json()) == query

    def test_unknown_top_level_field_rejected(self):
        data = small_query().to_dict()
        data["n_sampels"] = 100
        with pytest.raises(ValueError, match="n_sampels"):
            ReliabilityQuery.from_dict(data)

    def test_unknown_nested_field_rejected(self):
        data = small_query().to_dict()
        data["machine"]["nodes"] = 8
        with pytest.raises(ValueError, match="nodes"):
            ReliabilityQuery.from_dict(data)

    def test_wrong_version_rejected(self):
        data = small_query().to_dict()
        data["v"] = 99
        with pytest.raises(ValueError, match="version"):
            ReliabilityQuery.from_dict(data)

    def test_bad_json_is_value_error(self):
        with pytest.raises(ValueError):
            ReliabilityQuery.from_json("{not json")

    def test_result_roundtrip(self):
        result = run_query(small_query())
        again = QueryResult.from_json(result.to_json())
        assert again == result

    def test_result_value_lookup(self):
        result = run_query(small_query())
        assert result.value("n_samples") == 200.0
        with pytest.raises(KeyError, match="restart_fraction_mean"):
            result.value("nope")

    def test_query_pickles_and_hashes(self):
        query = small_query()
        assert pickle.loads(pickle.dumps(query)) == query
        assert hash(query) == hash(small_query())


class TestExactEquivalence:
    """Queries draw the same streams as the direct simulator calls, so
    results are float-for-float identical."""

    def test_campaign_matches_simulator_run(self, scenario):
        clustering = naive_clustering(1024, 32)
        config = CampaignConfig(
            horizon_s=7 * 24 * 3600.0,
            checkpoint_interval_s=1800.0,
            node_mtbf_s=0.25 * 365 * 24 * 3600.0,
        )
        sim = CampaignSimulator(scenario.machine, config)
        direct = sim.run(clustering, rng=5)
        result = run_query(
            query_for(
                scenario,
                clustering,
                metric="campaign",
                campaign=config,
                seed=5,
            )
        )
        assert result.value("waste_fraction") == direct.waste_fraction
        assert result.value("n_failures") == direct.n_failures
        assert result.value("n_catastrophic") == direct.n_catastrophic

    def test_deterministic(self):
        assert run_query(small_query()) == run_query(small_query())


class TestStreaming:
    def test_waste_curve_chunks_assemble_exactly(self):
        sweep = tuple(600.0 * (i + 1) for i in range(6))
        query = small_query(
            metric="waste_curve", sweep=sweep, n_campaigns=1, seed=2
        )
        whole = run_query(query)
        parts = [
            run_query(replace(query, sweep=sweep[i : i + 2]))
            for i in range(0, len(sweep), 2)
        ]
        assert assemble_streamed(query, parts) == whole

    def test_iter_waste_curve_matches_run_query(self):
        sweep = (600.0, 1200.0, 2400.0)
        query = small_query(
            metric="waste_curve", sweep=sweep, n_campaigns=1, seed=2
        )
        points = list(iter_waste_curve(query, resolve_query(query)))
        assert tuple(points) == run_query(query).curve

    def test_survival_curve_monotone(self):
        result = run_query(small_query(metric="survival"))
        survivals = [y for _, y in result.curve]
        assert survivals == sorted(survivals, reverse=True)


class TestQueryFor:
    def test_tolerance_maps_to_encoding(self, scenario):
        from repro.failures.catastrophic import rs_half_tolerance, xor_tolerance

        clustering = naive_clustering(1024, 32)
        assert (
            query_for(scenario, clustering, tolerance=rs_half_tolerance).encoding
            == "rs"
        )
        assert (
            query_for(scenario, clustering, tolerance=xor_tolerance).encoding
            == "xor"
        )

    def test_tolerance_and_encoding_conflict(self, scenario):
        from repro.failures.catastrophic import xor_tolerance

        with pytest.raises(TypeError):
            query_for(
                scenario,
                naive_clustering(1024, 32),
                tolerance=xor_tolerance,
                encoding="xor",
            )

    def test_resolve_query_caches_by_table_key(self):
        a = small_query(seed=0)
        b = small_query(seed=99)  # same tables, different seed
        assert resolve_query(a) is resolve_query(b)


# Exact ``QueryResult.to_json()`` strings, recorded at commit dc7fd4a while
# the loose-kwarg entry points (``montecarlo_scores``,
# ``CampaignSimulator.expected_waste``) still existed and were asserted
# bit-equal to these queries. They keep "seed-for-seed equal samples"
# checked now that those cross-checks are gone.
GOLDEN = {
    "montecarlo/naive-32/rs": (
        '{"v": 1, "metric": "montecarlo", "clustering": "naive-32", '
        '"values": [["n_samples", 800.0], ["restart_fraction_mean", '
        '0.03125], ["restart_fraction_p95", 0.03125], '
        '["catastrophic_rate", 0.0], ["soft_error_share", 0.0475]], '
        '"curve": []}'
    ),
    "montecarlo/naive-32/xor": (
        '{"v": 1, "metric": "montecarlo", "clustering": "naive-32", '
        '"values": [["n_samples", 800.0], ["restart_fraction_mean", '
        '0.03125], ["restart_fraction_p95", 0.03125], '
        '["catastrophic_rate", 0.9525], ["soft_error_share", 0.0475]], '
        '"curve": []}'
    ),
    "montecarlo/size-guided-8/rs": (
        '{"v": 1, "metric": "montecarlo", "clustering": "size-guided-8", '
        '"values": [["n_samples", 800.0], ["restart_fraction_mean", '
        '0.01525390625], ["restart_fraction_p95", 0.015625], '
        '["catastrophic_rate", 0.9525], ["soft_error_share", 0.0475]], '
        '"curve": []}'
    ),
    "montecarlo/size-guided-8/xor": (
        '{"v": 1, "metric": "montecarlo", "clustering": "size-guided-8", '
        '"values": [["n_samples", 800.0], ["restart_fraction_mean", '
        '0.01525390625], ["restart_fraction_p95", 0.015625], '
        '["catastrophic_rate", 0.9525], ["soft_error_share", 0.0475]], '
        '"curve": []}'
    ),
    "montecarlo/distributed-16/rs": (
        '{"v": 1, "metric": "montecarlo", "clustering": "distributed-16", '
        '"values": [["n_samples", 800.0], ["restart_fraction_mean", '
        '0.2388671875], ["restart_fraction_p95", 0.25], '
        '["catastrophic_rate", 0.0], ["soft_error_share", 0.0475]], '
        '"curve": []}'
    ),
    "montecarlo/distributed-16/xor": (
        '{"v": 1, "metric": "montecarlo", "clustering": "distributed-16", '
        '"values": [["n_samples", 800.0], ["restart_fraction_mean", '
        '0.2388671875], ["restart_fraction_p95", 0.25], '
        '["catastrophic_rate", 0.0], ["soft_error_share", 0.0475]], '
        '"curve": []}'
    ),
    "expected_waste": (
        '{"v": 1, "metric": "expected_waste", "clustering": "naive-32", '
        '"values": [["expected_waste", 0.154679580552867], ["efficiency", '
        '0.845320419447133], ["n_campaigns", 3.0]], "curve": []}'
    ),
    "campaign": (
        '{"v": 1, "metric": "campaign", "clustering": "naive-32", '
        '"values": [["n_failures", 2.0], ["n_catastrophic", 0.0], '
        '["checkpoint_overhead_s", 69546.19263573333], ["rework_s", '
        '55.15931451461711], ["restore_s", 13056.134417728], '
        '["catastrophic_penalty_s", 0.0], ["total_waste_s", '
        '82657.48636797594], ["waste_fraction", 0.13666912428567451], '
        '["efficiency", 0.8633308757143254]], "curve": []}'
    ),
}

_PIN_CAMPAIGN = CampaignConfig(
    horizon_s=7 * 24 * 3600.0,
    checkpoint_interval_s=1800.0,
    node_mtbf_s=0.25 * 365 * 24 * 3600.0,
)


def _pinned_query(scenario, key):
    kind, *rest = key.split("/")
    if kind == "montecarlo":
        name, encoding = rest
        clustering = {
            "naive-32": lambda: naive_clustering(1024, 32),
            "size-guided-8": lambda: size_guided_clustering(1024, 8),
            "distributed-16": lambda: distributed_clustering(
                scenario.placement, 16
            ),
        }[name]()
        tolerance = {"rs": rs_half_tolerance, "xor": xor_tolerance}[encoding]
        return query_for(
            scenario, clustering, tolerance=tolerance, n_samples=800, seed=7
        )
    extra = {"n_campaigns": 3} if kind == "expected_waste" else {}
    return query_for(
        scenario,
        naive_clustering(1024, 32),
        metric=kind,
        campaign=_PIN_CAMPAIGN,
        seed=1,
        **extra,
    )


class TestGoldenPins:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_pinned_result(self, scenario, key):
        result = run_query(_pinned_query(scenario, key))
        assert result.to_json() == GOLDEN[key]
