"""fuzz-campaign: the default fuzz campaign, with shrinking.

``run_campaign(FuzzCampaignConfig(seed=42, workers=0))`` (200 scenarios)
drives the engine under failure injection (kills deopt the kernel),
HydEE replay and the shrinker. Like fig5-trace's world, the campaign is
fixed whatever the run seed: a campaign's cost follows how many of its
scenarios disagree with the model (the steering then favours the actors
that found them), and across campaign seeds that count ranged over 52-76
of 200 and moved the wall time by 40%, more than any bound allows.

Seed stability is checked on every timed campaign: its full
classification stream must hash to the stream pinned for the fixed
campaign in ``SHAPES``, and its counts must match.

Traced, the run also times the campaign's layers from outside:
``compose_scenario`` per scenario, ``execute_scenario`` on every scenario
of the first campaign (each must classify as it did in the campaign) and
``shrink`` on its findings (each must shrink to the same outcome).
"""

from __future__ import annotations

import gc
import hashlib
import time

import numpy as np

from harness import Outcome, PeakRss, Spans, Tail, check, fresh_setup_seconds, median

#: Per shape: the campaign's budget, the SHA-256 of its classification
#: stream (one classification a line) and the stream's counts.
SHAPES = {
    "paper": dict(
        budget=200,
        stream_sha256="74eca58823d3d7a28988dbe36a907c23a8adc3aeeb5af9ad86ecfa3ff228ce80",
        counts={"agree": 134, "model_optimistic": 66},
    ),
    "small": dict(
        budget=4,
        stream_sha256="8f87e9eeeb661a4a2428295575e13a1756283d505fc6739ccf21e96063f5a93a",
        counts={"agree": 3, "model_optimistic": 1},
    ),
}
CAMPAIGN_SEED = 42
MIN_CAMPAIGNS = 1
SETUP_REPEATS = 3


def config(seed: int, shape: str):
    from repro.fuzz.autopilot import FuzzCampaignConfig

    return FuzzCampaignConfig(seed=seed, workers=0, budget=SHAPES[shape]["budget"])


def setup(shape: str) -> None:
    config(0, shape)


def run(*, seed: int, seconds: float, shape: str, spans: Spans) -> Outcome:
    from repro.fuzz.autopilot import run_campaign

    del seed  # the campaign is fixed; see the module docstring

    setup_s = fresh_setup_seconds("fuzz-campaign", shape, SETUP_REPEATS)
    reports = []
    walls = []
    with PeakRss() as rss:
        timed = 0.0
        while len(reports) < MIN_CAMPAIGNS or timed * (len(reports) + 1) / len(reports) <= seconds:
            gc.collect()
            with spans.span("fuzz.campaign", len(reports)):
                t0 = time.perf_counter()
                report = run_campaign(config(CAMPAIGN_SEED, shape))
                walls.append(time.perf_counter() - t0)
            timed += walls[-1]
            _check_stream(report, shape)
            reports.append(report)

    scenarios = sum(len(r.results) for r in reports)
    crashes = sum(x.classification == "crash" for r in reports for x in r.results)
    tail = Tail.of([w * 1e3 for w in walls])
    outcome = Outcome(
        attempted=scenarios,
        failed=crashes,
        metrics={
            "setup_s": median(setup_s),
            "peak_rss_mb": rss.mb,
            "ok_share": (scenarios - crashes) / scenarios,
            "work_per_s": scenarios / sum(walls),
            "latency_p50_ms": median(walls) * 1e3,
            "latency_tail_ms": tail.value,
        },
        details={
            "campaigns": len(reports),
            "seed": CAMPAIGN_SEED,
            "scenarios": scenarios,
            "campaign_ms": [round(w * 1e3, 3) for w in walls],
            "campaign_tail": tail.describe(),
            "classifications": [r.classifications for r in reports],
            "shrink_executions": [[o.executions for o in r.shrunken] for r in reports],
        },
    )
    if spans.enabled:
        outcome.layers = _layers(reports[0], spans)
    return outcome


def _check_stream(report, shape: str) -> None:
    stream = "\n".join(r.classification for r in report.results)
    pinned = SHAPES[shape]
    check(
        hashlib.sha256(stream.encode()).hexdigest() == pinned["stream_sha256"]
        and report.classifications == pinned["counts"],
        f"campaign with seed {CAMPAIGN_SEED} classified {report.classifications}, "
        f"not the pinned stream of {pinned['counts']}",
    )


def _layers(report, spans: Spans) -> dict:
    from repro.fuzz.actors import compose_scenario
    from repro.fuzz.executor import execute_scenario
    from repro.fuzz.shrink import shrink

    cfg = report.config
    for i, scenario in enumerate(report.scenarios):
        rng = np.random.default_rng([cfg.seed, i])
        with spans.span("fuzz.generate", i):
            compose_scenario(cfg.shape, scenario.actor_names, rng, seed=i)
    for i, (scenario, result) in enumerate(zip(report.scenarios, report.results)):
        with spans.span("fuzz.execute", i):
            try:
                again = execute_scenario(scenario).classification
            except Exception:  # noqa: BLE001 - the campaign records these as crashes
                again = "crash"
        check(
            again == result.classification,
            f"scenario {i} classified {again}, campaign said {result.classification}",
        )
    # run_campaign shrinks its first disagreeing scenarios, in order.
    findings = [(s, r) for s, r in zip(report.scenarios, report.results) if r.disagrees]
    executions = 0
    for (scenario, result), outcome in zip(findings, report.shrunken):
        with spans.span("fuzz.shrink"):
            again = shrink(
                scenario, target=result.classification, max_executions=cfg.shrink_executions
            )
        check(
            again.executions == outcome.executions,
            f"shrinking took {again.executions} executions, campaign took {outcome.executions}",
        )
        executions += again.executions
    execute_ms = [d * 1e3 for d in spans.durations("fuzz.execute")]
    return {
        "fuzz.generate_ms": median(spans.durations("fuzz.generate")) * 1e3,
        "fuzz.execute_ms": median(execute_ms),
        "fuzz.execute_tail_ms": Tail.of(execute_ms).value,
        "fuzz.shrink_s": sum(spans.durations("fuzz.shrink")),
        "fuzz.shrink_executions": executions,
        "fuzz.deopt_share": sum(bool(r.kernel_deopts) for r in report.results)
        / len(report.results),
        "simmpi.kernel_deopts": sum(n for r in report.results for _, n in r.kernel_deopts),
    }

