"""One frozen, picklable configuration object for the simulation engine.

:class:`EngineConfig` carries every engine knob — the fast-path gates
(``use_fast_collectives`` / ``use_batched_p2p`` / ``use_kernels``), the
pool sizing, the interleaving-exploration knobs and the failure/observer
gates — in one validated dataclass. It exists so
any consumer that replicates engines (the sharded multi-process engine's
workers, the fuzz executor, replay tooling) ships *one object* across a
process boundary instead of replaying keyword arguments, with the
guarantee that two engines built from equal configs behave identically.

The config is intentionally *immutable and value-like*: ``frozen=True``
makes it hashable and safe to share, and every field is built from
picklable primitives (a recorded
:class:`~repro.simmpi.schedule.ScheduleTrace` is a tuple-of-tuples
dataclass). The one engine hook that is *not* here is ``message_log`` —
it is a live observer object with callbacks, attached to a constructed
engine, not configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simmpi.schedule import ScheduleTrace


@dataclass(frozen=True)
class EngineConfig:
    """Validated, picklable engine construction parameters.

    use_fast_collectives:
        Allow collectives (world or split sub-communicator) to take the
        vectorized fast path. Set to ``False`` to pin every collective to
        the point-to-point generator cascade (the equivalence suite's
        reference).
    use_batched_p2p:
        Price point-to-point sends in vectorized waves (one
        :meth:`NetworkModel.transfer_times` call and one fancy-indexed
        pool assignment per drained batch) instead of one scalar
        :meth:`NetworkModel.transfer_time` call per message. Arrival times
        are bit-identical either way; set to ``False`` to pin the scalar
        reference path.
    use_kernels:
        Allow :class:`~repro.simmpi.engine.KernelLoop` steady-state loops
        to compile into whole-world closed-form kernel executions once
        every unfinished rank cycles through a static wave. Set to
        ``False`` to pin the loop's interpreted expansion (still zero
        generator wakeups between matching points, but every message
        posted individually — the kernel equivalence suite's reference).
        The vectorized path additionally self-gates exactly like the other
        fast paths: any per-message observer (``message_log``,
        ``track_recv_counts``, failure injection) or
        ``use_batched_p2p=False`` keeps the interpreted expansion.
    pool_capacity:
        Initial :class:`~repro.simmpi.request.MessagePool` slot count.
        The pool doubles on demand, so this only sizes the steady state
        (tests use tiny capacities to exercise growth).
    schedule_seed:
        Seeded interleaving exploration. When set, every scheduler batch
        is permuted by a dedicated ``numpy`` Generator after its canonical
        ascending sort — the ranks of a batch are causally unordered, so
        every permuted drain is a legal MPI schedule; per-rank program
        order and per-(sender, communicator) non-overtaking are
        untouched. What changes is the *global* posting-sequence
        interleaving, which is exactly what wildcard arbitration and
        deadlock hunting need to see varied. The default ``None`` keeps
        the canonical deterministic drain byte-for-byte (the permutation
        machinery is bypassed entirely). Applied permutations are
        recorded on the engine's ``schedule_trace`` after every run, so
        any explored schedule replays exactly from the seed or from the
        recorded trace. Steady-state kernels deopt under a non-canonical
        schedule (``kernel_deopts["non-canonical-schedule"]``): their
        closed-form execution assumes the canonical posting sequence.
    schedule_trace:
        Replay a recorded :class:`~repro.simmpi.schedule.ScheduleTrace`
        instead of drawing permutations from a seed (repro files and the
        schedule shrinker use this). Entries whose permutation length no
        longer matches the batch are skipped — the batch drains
        canonically — so partially-reverted traces stay legal. Takes
        precedence over ``schedule_seed`` when both are given.
    failure_ranks:
        Ranks that should fail by raising
        :class:`~repro.simmpi.errors.RankFailedError` inside their program
        the next time they interact with the engine. Used by the
        failure-injection layers; normal runs leave it empty. Stored as a
        ``frozenset``; the engine copies it into its mutable
        ``failure_ranks`` set (failure layers arm ranks mid-run).
    track_recv_counts:
        Enable per-channel consumed-receive counting (the protocol
        layer's receiver-position sidecars).
    """

    use_fast_collectives: bool = True
    use_batched_p2p: bool = True
    use_kernels: bool = True
    pool_capacity: int = 512
    schedule_seed: int | None = None
    schedule_trace: "ScheduleTrace | None" = None
    failure_ranks: frozenset[int] = field(default_factory=frozenset)
    track_recv_counts: bool = False

    def __post_init__(self):
        if not isinstance(self.pool_capacity, int) or self.pool_capacity < 1:
            raise ValueError(
                f"pool_capacity must be a positive int, got {self.pool_capacity!r}"
            )
        if self.schedule_seed is not None and not isinstance(self.schedule_seed, int):
            raise ValueError(
                f"schedule_seed must be an int or None, got {self.schedule_seed!r}"
            )
        # Coerce any iterable of ranks to a hashable frozenset so configs
        # built with a plain set/list/tuple stay frozen and hashable.
        if not isinstance(self.failure_ranks, frozenset):
            object.__setattr__(self, "failure_ranks", frozenset(self.failure_ranks))
        if any(not isinstance(r, int) or r < 0 for r in self.failure_ranks):
            raise ValueError(
                f"failure_ranks must be non-negative ints, got {sorted(self.failure_ranks)!r}"
            )


__all__ = ["EngineConfig"]
