"""Monte-Carlo cross-validation of Table II's model-derived columns.

The recovery-cost and reliability columns of Table II come from analytic
models; this bench re-derives both by sampling thousands of failure events
from the calibrated taxonomy and applying them to each clustering,
printing analytic-vs-sampled side by side and asserting agreement.
"""


from repro.clustering import (
    distributed_clustering,
    naive_clustering,
    size_guided_clustering,
)
from repro.core import query_for, run_query, validate_against_analytic
from repro.failures import CatastrophicModel
from repro.models import expected_restart_fraction
from repro.util.tables import AsciiTable
from repro.util.units import format_probability

N_SAMPLES = 1500


def bench_montecarlo_table2(benchmark, scenario):
    """Time the sampled evaluation of the three flat strategies."""
    strategies = [
        naive_clustering(1024, 32),
        size_guided_clustering(1024, 8),
        distributed_clustering(scenario.placement, 16),
    ]

    queries = [
        query_for(scenario, c, n_samples=N_SAMPLES, seed=99 + i)
        for i, c in enumerate(strategies)
    ]

    def run():
        return [run_query(q) for q in queries]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    model = CatastrophicModel(scenario.placement, taxonomy=scenario.taxonomy)
    table = AsciiTable(
        [
            "clustering",
            "restart (analytic)",
            "restart (sampled)",
            "P[cat] (analytic)",
            "cat rate (sampled)",
        ],
        title=f"Monte-Carlo validation ({N_SAMPLES} failures per strategy)",
    )
    for clustering, mc in zip(strategies, results):
        analytic_restart = expected_restart_fraction(
            clustering, scenario.placement
        )
        analytic_cat = model.probability(clustering)
        cat_rate = mc.value("catastrophic_rate")
        table.add_row(
            [
                clustering.name,
                f"{100 * analytic_restart:.2f}%",
                f"{100 * mc.value('restart_fraction_mean'):.2f}%",
                format_probability(analytic_cat),
                format_probability(cat_rate),
            ]
        )
        assert abs(cat_rate - analytic_cat) < 0.05
    print("\n" + table.render())


class TestAgreement:
    def test_every_strategy_validates(self, scenario):
        for i, clustering in enumerate(
            [
                naive_clustering(1024, 32),
                size_guided_clustering(1024, 8),
                distributed_clustering(scenario.placement, 16),
            ]
        ):
            out = validate_against_analytic(
                scenario, clustering, n_samples=600, seed=11 + i
            )
            assert out["restart_deviation"] <= 0.02, clustering.name
