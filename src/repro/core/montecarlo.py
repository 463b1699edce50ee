"""Monte-Carlo validation of the analytic four-dimensional scores.

The Table II pipeline computes the recovery and reliability columns from
closed-form models. This module re-derives both *empirically*: sample
failure events from the same taxonomy, apply each to the clustering, and
measure the restart fraction and catastrophic rate directly. The analytic
and sampled values must agree within sampling error — a cross-validation
that guards the whole evaluation against model-implementation drift.

Performance notes
-----------------
The production path is a ``metric="montecarlo"``
:class:`~repro.core.query.ReliabilityQuery` answered by
:func:`~repro.core.query.run_query`, which is fully batched: the
estimator draws every event kind, victim process, cascade length and run
start in one set of NumPy calls (:meth:`MonteCarloEstimator.sample_events
<repro.failures.catastrophic.MonteCarloEstimator.sample_events>`), and
scoring is pure array indexing into the precomputed per-(clustering,
placement) lookup tables of :mod:`repro.core.tables` — restart fraction
and catastrophic verdict of every possible contiguous node run are
computed once and reused across samples, seeds and strategies. The
per-event loop survives as :func:`montecarlo_scores_scalar`, the test
oracle the equivalence tests compare against; it is 10–100× slower.
Profile with ``benchmarks/record_bench.py``, which times both paths and
records samples/sec into ``BENCH_montecarlo.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.base import Clustering
from repro.core.query import query_for, run_query
from repro.core.scenario import Scenario
from repro.failures.catastrophic import (
    CatastrophicModel,
    MonteCarloEstimator,
    rs_half_tolerance,
)
from repro.models.recovery_cost import restart_set_for_nodes
from repro.util.rng import resolve_rng


@dataclass(frozen=True)
class MonteCarloScores:
    """Empirical counterparts of two FourDimScore columns."""

    name: str
    n_samples: int
    restart_fraction_mean: float
    restart_fraction_p95: float
    catastrophic_rate: float
    soft_error_share: float

    def summary(self) -> str:
        """One-line report for benches and examples."""
        return (
            f"{self.name}: restart mean {100 * self.restart_fraction_mean:.2f}% "
            f"(p95 {100 * self.restart_fraction_p95:.2f}%), "
            f"catastrophic rate {self.catastrophic_rate:.3g} "
            f"over {self.n_samples} sampled failures"
        )


def _scores_from_samples(
    name: str, restart_fractions: np.ndarray, catastrophic: int, soft: int
) -> MonteCarloScores:
    n_samples = restart_fractions.size
    return MonteCarloScores(
        name=name,
        n_samples=n_samples,
        restart_fraction_mean=float(restart_fractions.mean()),
        restart_fraction_p95=float(np.quantile(restart_fractions, 0.95)),
        catastrophic_rate=catastrophic / n_samples,
        soft_error_share=soft / n_samples,
    )


def analytic_restart_mixture(scenario: Scenario, clustering: Clustering) -> float:
    """Analytic expected restart fraction under the full event mixture.

    Soft errors restart one cluster (size-weighted mean of the process's
    own cluster), node events ~ the single-node expectation (multi-node
    cascades are vanishingly rare) — the closed form the sampled
    ``restart_fraction_mean`` must converge to.
    """
    from repro.models.recovery_cost import expected_restart_fraction

    p_soft = scenario.taxonomy.p_soft
    mean_cluster = float(
        (clustering.l1_sizes() ** 2).sum() / clustering.n**2
    )
    analytic_node = expected_restart_fraction(clustering, scenario.placement)
    return p_soft * mean_cluster + (1 - p_soft) * analytic_node


def montecarlo_scores_scalar(
    scenario: Scenario,
    clustering: Clustering,
    *,
    n_samples: int = 2000,
    rng=None,
    tolerance=rs_half_tolerance,
) -> MonteCarloScores:
    """Per-event reference implementation of the batched Monte-Carlo query.

    Walks every sampled event through the scalar predicates — the original
    sample-then-measure loop. Kept (and exercised by the equivalence tests)
    as the ground truth the batched engine must reproduce; use the batched
    path everywhere else.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    gen = resolve_rng(rng)
    model = CatastrophicModel(
        scenario.placement, taxonomy=scenario.taxonomy, tolerance=tolerance
    )
    sampler = MonteCarloEstimator(model, rng=gen)

    restart_fractions = np.empty(n_samples)
    catastrophic = 0
    soft = 0
    n = clustering.n
    for i in range(n_samples):
        event = sampler.sample_event()
        if event.kind == "soft":
            soft += 1
            members = clustering.l1_members(clustering.l1_of(event.process))
            restart_fractions[i] = members.size / n
        else:
            restart = restart_set_for_nodes(
                clustering, scenario.placement, event.nodes
            )
            restart_fractions[i] = restart.size / n
        if model.event_is_catastrophic(clustering, event):
            catastrophic += 1

    return _scores_from_samples(
        clustering.name, restart_fractions, catastrophic, soft
    )


def validate_against_analytic(
    scenario: Scenario,
    clustering: Clustering,
    *,
    n_samples: int = 2000,
    seed: int = 0,
    restart_tolerance: float = 0.02,
    tolerance=rs_half_tolerance,
) -> dict[str, float]:
    """Run the Monte Carlo and compare with the analytic models.

    The samples come from a ``metric="montecarlo"`` query under ``seed``.
    Returns the absolute deviations; raises ``AssertionError`` when the
    sampled restart fraction strays beyond ``restart_tolerance`` of the
    analytic node-failure expectation (adjusted for the soft-error mix).
    """
    mc = run_query(
        query_for(
            scenario,
            clustering,
            tolerance=tolerance,
            n_samples=n_samples,
            seed=seed,
        )
    )
    mc_restart = mc.value("restart_fraction_mean")
    model = CatastrophicModel(
        scenario.placement, taxonomy=scenario.taxonomy, tolerance=tolerance
    )
    analytic_cat = model.probability(clustering)
    analytic_mixture = analytic_restart_mixture(scenario, clustering)

    deviation = abs(mc_restart - analytic_mixture)
    if deviation > restart_tolerance:
        raise AssertionError(
            f"Monte-Carlo restart {mc_restart:.4f} deviates "
            f"{deviation:.4f} from analytic {analytic_mixture:.4f}"
        )
    return {
        "restart_deviation": deviation,
        "analytic_restart": analytic_mixture,
        "mc_restart": mc_restart,
        "analytic_catastrophic": analytic_cat,
        "mc_catastrophic": mc.value("catastrophic_rate"),
    }
