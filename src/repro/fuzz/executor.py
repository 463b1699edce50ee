"""Scenario executor: run one fuzzed scenario end to end and classify it.

Two phases per scenario, each on a fresh machine:

**Phase A — engine differential.** The synthetic, kernel-native tsunami
runs once on the fully accelerated engine (kernels + vectorized
collectives + batched p2p) and once with every fast path off, both with
the scenario's node victims preset in ``Engine.failure_ranks`` and the
scenario's perturbed network installed. Outcomes (completion pattern,
deadlock attribution, per-rank clocks) must match bit for bit; while
injection is active the kernel fast path must stay off (``kernel_runs ==
0``) and the engine must record why (``kernel_deopts``) — the safety
property the kernelized engine promises under failures.

**Phase B — protocol vs model.** The real application runs under the
hybrid CR protocol, the scenario's corruption (if any) is applied to the
stored checkpoint/parity blobs, and every scheduled event is recovered
through :class:`~repro.hydee.recovery.RecoveryManager` — erasure decode,
log replay, send-determinism verification, bitwise state comparison
against a failure-free reference. The observed outcome is compared with
the analytic tables' prediction (`event_is_catastrophic`, restart
fractions — the quantities a ``metric="montecarlo"`` query scores).

Events are observed *in schedule order with cumulative damage*: a node
wiped by an earlier event stays wiped. The analytic model prices each
event in isolation, so multi-event schedules are exactly where the
executor can catch the model being optimistic — that gap is the point,
not a bug.

When the scenario carries a ``schedule_seed`` or ``schedule_trace``,
phase A additionally runs the synthetic world under the explored
interleaving and compares that outcome with the canonical schedule's.
The world is wildcard-free, so any difference — result, clocks, or a
deadlock — is a ``schedule_divergence`` finding; the permutations the
engine actually applied come back on ``ScenarioResult.schedule_trace``
for repro files and the schedule shrinker.

Classification (most severe wins): ``crash`` > ``deadlock`` >
``schedule_divergence`` > ``engine_divergence`` > ``model_optimistic`` >
``model_pessimistic`` > ``agree``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.core.query import QueryTables
from repro.failures.catastrophic import CatastrophicModel
from repro.failures.events import FailureEvent
from repro.ftilib.checkpointer import RestoreError
from repro.fuzz.actors import CorruptionSpec, FuzzScenario
from repro.fuzz.perturb import apply_perturbation
from repro.fuzz.shape import FuzzShape
from repro.hydee.logging import ReplayMismatchError
from repro.hydee.protocol import run_with_protocol
from repro.hydee.recovery import ContainedRecoveryError, RecoveryManager
from repro.simmpi import (
    DeadlockError,
    Engine,
    EngineConfig,
    ScheduleTrace,
    run_program,
)

CLASSIFICATIONS = (
    "crash",
    "deadlock",
    "schedule_divergence",
    "engine_divergence",
    "model_optimistic",
    "model_pessimistic",
    "agree",
)

DISAGREEMENTS = frozenset(CLASSIFICATIONS[:-1])


@dataclass(frozen=True)
class EventRecord:
    """Prediction vs observation for one scheduled event."""

    iteration: int
    kind: str
    nodes: tuple[int, ...]
    process: int | None
    predicted_catastrophic: bool
    observed: str  # recovered | lost | corrupt | crash | deadlock
    predicted_restart_fraction: float
    observed_restart_fraction: float | None
    detail: str = ""


@dataclass(frozen=True)
class ScenarioResult:
    """Everything the autopilot, shrinker and repro files need."""

    classification: str
    events: tuple[EventRecord, ...] = ()
    engine_ok: bool = True
    schedule_ok: bool = True
    kernel_deopts: tuple[tuple[str, int], ...] = ()
    schedule_trace: tuple[tuple[int, tuple[int, ...]], ...] | None = None
    detail: str = ""

    @property
    def disagrees(self) -> bool:
        return self.classification in DISAGREEMENTS


# -- phase A: engine differential -------------------------------------------


def _engine_outcome(engine: Engine, program) -> tuple:
    """Comparable outcome signature of one engine run."""
    try:
        results = engine.run(program)
    except DeadlockError as err:
        return ("deadlock", tuple(sorted(err.blocked)))
    return (
        "done",
        tuple(r is not None for r in results),
        tuple(engine.rank_times()),
    )


def _schedule_check(
    scenario: FuzzScenario, machine, sim, victims, fast_outcome
) -> tuple[bool, tuple, str]:
    """Explored interleaving vs the canonical schedule (same machine).

    The synthetic world has no wildcard receives, so every legal
    interleaving must reproduce the canonical outcome bit for bit; the
    kernel fast path must stay off under a non-canonical schedule and
    record ``non-canonical-schedule`` as the reason.
    """
    shape = scenario.shape
    trace = (
        None
        if scenario.schedule_trace is None
        else ScheduleTrace.from_entries(scenario.schedule_trace)
    )
    seeded = Engine(
        shape.nranks,
        config=EngineConfig(
            schedule_seed=None if trace is not None else scenario.schedule_seed,
            schedule_trace=trace,
        ),
        network=machine.network,
    )
    seeded.failure_ranks.update(victims)
    outcome = _engine_outcome(
        seeded, sim.make_program(iterations=shape.iterations)
    )
    if seeded.kernel_runs != 0:
        raise AssertionError(
            f"kernel fast path ran {seeded.kernel_runs}x under a "
            "non-canonical schedule"
        )
    deopts = dict(seeded.kernel_deopts)
    if deopts and "non-canonical-schedule" not in deopts:
        raise AssertionError(
            "exploring engine recorded kernel deopts without naming "
            f"the schedule: {deopts}"
        )
    applied = (
        () if seeded.schedule_trace is None else seeded.schedule_trace.entries
    )
    if outcome != fast_outcome:
        if outcome[0] == "deadlock":
            detail = (
                "explored schedule deadlocks: blocked "
                f"{sorted(outcome[1])}"
            )
        elif outcome[0] != fast_outcome[0]:
            detail = (
                f"explored schedule {outcome[0]} != canonical "
                f"{fast_outcome[0]}"
            )
        else:
            detail = "explored schedule result/clock mismatch vs canonical"
        return False, applied, detail
    return True, applied, ""


def _engine_check(scenario: FuzzScenario) -> tuple[bool, bool, dict, str, tuple | None]:
    """Fast engine vs scalar reference under injection + perturbation,
    plus the explored-interleaving differential when the scenario carries
    a schedule seed or trace."""
    shape = scenario.shape
    machine = shape.machine()
    apply_perturbation(machine, scenario.perturbation)
    victims = sorted(
        rank
        for node in scenario.schedule.killed_nodes()
        for rank in machine.ranks_of_node(node)
    )
    sim = shape.simulation(synthetic=True)

    fast = Engine(shape.nranks, network=machine.network)
    fast.failure_ranks.update(victims)
    fast_outcome = _engine_outcome(
        fast, sim.make_program(iterations=shape.iterations)
    )
    deopts = dict(fast.kernel_deopts)
    if victims and fast.kernel_runs != 0:
        raise AssertionError(
            f"kernel fast path ran {fast.kernel_runs}x with failure "
            f"injection active (victims {victims})"
        )
    if victims and not deopts and len(victims) < shape.nranks:
        # A total wipeout may die at the first communication, before any
        # rank reaches a kernel-eligible loop — no deopt to record then.
        raise AssertionError(
            "active failure injection recorded no kernel deopt reason"
        )

    reference = Engine(
        shape.nranks,
        config=EngineConfig(
            use_fast_collectives=False, use_batched_p2p=False, use_kernels=False
        ),
        network=machine.network,
    )
    reference.failure_ranks.update(victims)
    ref_outcome = _engine_outcome(
        reference, sim.make_program(iterations=shape.iterations)
    )
    if fast_outcome != ref_outcome:
        detail = (
            f"fast {fast_outcome[0]} != reference {ref_outcome[0]}"
            if fast_outcome[0] != ref_outcome[0]
            else "fast/reference outcome mismatch"
        )
        return False, True, deopts, detail, None

    schedule_ok, schedule_trace, schedule_detail = True, None, ""
    if (
        scenario.schedule_seed is not None
        or scenario.schedule_trace is not None
    ):
        schedule_ok, schedule_trace, schedule_detail = _schedule_check(
            scenario, machine, sim, victims, fast_outcome
        )
    return True, schedule_ok, deopts, schedule_detail, schedule_trace


# -- phase B: protocol vs model ----------------------------------------------


@functools.lru_cache(maxsize=64)
def _reference_states(shape: FuzzShape, iterations: int) -> tuple:
    """Failure-free reference states at ``iterations`` (per-process cache;
    treat as read-only)."""
    sim = shape.simulation()
    return tuple(
        run_program(sim.make_program(iterations=iterations), shape.nranks)
    )


def _states_match(recovered: dict, reference: dict) -> bool:
    if recovered["iteration"] != reference["iteration"]:
        return False
    for key in ("eta", "u", "v"):
        if not np.array_equal(recovered[key], reference[key]):
            return False
    return True


def _xor_blob(device, key, mask: int) -> None:
    """Flip bytes inside a stored blob, deep in the serialized payload."""
    blob, _ = device.read(key)
    blob = blob.copy()
    offset = (blob.size * 3) // 5
    span = min(16, blob.size - offset)
    if span <= 0:
        offset, span = 0, blob.size
    blob[offset : offset + span] ^= mask
    device.write(key, blob, blob.size)


def apply_corruption(
    machine, run, clustering, spec: CorruptionSpec, version: int
) -> int:
    """Corrupt up to ``spec.n_shards`` stored blobs of ``version``.

    ``parity`` walks the L2 clusters' round-robin parity placement;
    ``local`` hits ranks' L1 checkpoint copies. Returns how many blobs
    were actually corrupted (a shard may already be gone).
    """
    corrupted = 0
    if spec.target == "parity":
        for l2 in range(clustering.n_l2_clusters):
            members = [int(r) for r in clustering.l2_members(l2)]
            nodes = [machine.node_of_rank(r) for r in members]
            for j in range(len(members)):  # fti_rs_code: m == k shards
                if corrupted >= spec.n_shards:
                    return corrupted
                device = machine.node_ssds[nodes[j % len(nodes)]]
                key = ("parity", l2, version, j)
                if key in device:
                    _xor_blob(device, key, spec.xor_mask)
                    corrupted += 1
    else:
        for rank in range(machine.nranks):
            if corrupted >= spec.n_shards:
                return corrupted
            device = machine.ssd_of_rank(rank)
            key = ("ckpt", rank, version)
            if key in device:
                _xor_blob(device, key, spec.xor_mask)
                corrupted += 1
    return corrupted


def _observe_event(
    manager: RecoveryManager,
    shape: FuzzShape,
    event: FailureEvent,
    iteration: int,
) -> tuple[str, float | None, str]:
    """Run one contained recovery; say what actually happened."""
    try:
        result = manager.recover(event, failure_iteration=iteration)
    except (ContainedRecoveryError, RestoreError) as exc:
        return "lost", None, f"{type(exc).__name__}: {exc}"
    except ValueError as exc:
        # latest_checkpoint: no restorable version for the cluster.
        return "lost", None, f"{type(exc).__name__}: {exc}"
    except DeadlockError as exc:
        return "deadlock", None, f"replay deadlock: blocked {sorted(exc.blocked)}"
    except Exception as exc:  # noqa: BLE001 — crashes are a *finding*
        return "crash", None, f"{type(exc).__name__}: {exc}"

    try:
        manager.verify_send_determinism(result)
    except ReplayMismatchError as exc:
        return "corrupt", result.restart_fraction, f"send determinism: {exc}"
    except Exception as exc:  # noqa: BLE001
        return "crash", None, f"{type(exc).__name__}: {exc}"

    reference = _reference_states(shape, iteration)
    for rank in result.restarted_ranks:
        if not _states_match(result.recovered_states[rank], reference[rank]):
            return (
                "corrupt",
                result.restart_fraction,
                f"rank {rank} state differs from failure-free reference",
            )
    return "recovered", result.restart_fraction, ""


def _protocol_check(scenario: FuzzScenario) -> list[EventRecord]:
    shape = scenario.shape
    machine = shape.machine()
    apply_perturbation(machine, scenario.perturbation)
    clustering = shape.clustering()
    sim = shape.simulation()
    run = run_with_protocol(
        sim,
        machine,
        clustering,
        iterations=shape.iterations,
        checkpoint_every=shape.checkpoint_every,
        keep_versions=shape.keep_versions,
    )
    manager = RecoveryManager(sim, machine, run)
    # The same per-event oracle the query layer serves: tables built once,
    # predictions read per scheduled event.
    tables = QueryTables(
        machine=machine,
        clustering=clustering,
        model=CatastrophicModel(machine.placement),
    )

    records: list[EventRecord] = []
    corruption_pending = scenario.corruption is not None
    for scheduled in scenario.schedule.failures:
        event = scheduled.event
        predicted = tables.predicted_catastrophic(event)
        predicted_fraction = tables.predicted_restart_fraction(event)
        if corruption_pending and event.kind == "node":
            versions = [
                v
                for v in run.checkpointer.versions_of(0)
                if v <= scheduled.iteration
            ]
            if versions:
                apply_corruption(
                    machine, run, clustering, scenario.corruption, max(versions)
                )
                corruption_pending = False
        observed, observed_fraction, detail = _observe_event(
            manager, shape, event, scheduled.iteration
        )
        records.append(
            EventRecord(
                iteration=scheduled.iteration,
                kind=event.kind,
                nodes=tuple(event.nodes) if event.kind == "node" else (),
                process=event.process,
                predicted_catastrophic=predicted,
                observed=observed,
                predicted_restart_fraction=predicted_fraction,
                observed_restart_fraction=observed_fraction,
                detail=detail,
            )
        )
    return records


# -- classification -----------------------------------------------------------


def classify(
    engine_ok: bool, records: list[EventRecord], schedule_ok: bool = True
) -> str:
    observed = [r.observed for r in records]
    if "crash" in observed:
        return "crash"
    if "deadlock" in observed:
        return "deadlock"
    if not schedule_ok:
        return "schedule_divergence"
    if not engine_ok:
        return "engine_divergence"
    for record in records:
        if not record.predicted_catastrophic and record.observed in (
            "lost",
            "corrupt",
        ):
            return "model_optimistic"
    for record in records:
        if record.predicted_catastrophic and record.observed == "recovered":
            return "model_pessimistic"
    return "agree"


def execute_scenario(scenario: FuzzScenario) -> ScenarioResult:
    """Run both phases and classify; never raises on scenario badness
    (crashes become a classification), only on executor-internal bugs."""
    engine_ok, schedule_ok, deopts, engine_detail, schedule_trace = (
        _engine_check(scenario)
    )
    records = _protocol_check(scenario)
    classification = classify(engine_ok, records, schedule_ok)
    detail = engine_detail
    if not detail:
        for record in records:
            if record.detail:
                detail = f"iter {record.iteration}: {record.detail}"
                break
    return ScenarioResult(
        classification=classification,
        events=tuple(records),
        engine_ok=engine_ok,
        schedule_ok=schedule_ok,
        kernel_deopts=tuple(sorted(deopts.items())),
        schedule_trace=schedule_trace,
        detail=detail,
    )
