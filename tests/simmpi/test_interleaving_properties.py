"""Property suite for schedule-interleaving legality.

Every schedule the exploration mode can produce permutes only
causally-unordered ranks, so it must be MPI-legal: for arbitrary small
programs, a seeded interleaving either completes with exactly the same
message multiset as the canonical schedule — never breaking per-channel
non-overtaking — or deadlocks with a correct attribution that replays
exactly from its recorded :class:`~repro.simmpi.ScheduleTrace`. Programs
without wildcard receives must stay bit-identical to canonical under any
seed (schedule determinism); wildcard programs may legally re-arbitrate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    Engine,
    EngineConfig,
    run_program,
)

NRANKS = 4

sends = st.lists(
    st.tuples(
        st.integers(0, NRANKS - 1),  # src
        st.integers(0, NRANKS - 1),  # dst
        st.integers(0, 2),  # tag
        st.integers(0, 1000),  # value
    ),
    min_size=1,
    max_size=24,
)
modes = st.lists(
    st.sampled_from(["exact", "any_source", "any_tag", "wildcard"]),
    min_size=NRANKS,
    max_size=NRANKS,
)
seeds = st.integers(0, 2**31 - 1)


def _recv_plan(inbox, mode):
    """Counting-satisfiable receive patterns for one rank's inbox: these
    plans complete under *every* legal schedule, so any deadlock would be
    an interleaving bug, not a program bug."""
    if mode == "exact":
        return [(src, tag) for src, tag, _ in inbox]
    if mode == "any_source":
        return [(ANY_SOURCE, tag) for _, tag, _ in inbox]
    if mode == "any_tag":
        return [(src, ANY_TAG) for src, _, _ in inbox]
    return [(ANY_SOURCE, ANY_TAG)] * len(inbox)


def _traffic(schedule):
    outgoing = {r: [] for r in range(NRANKS)}
    inbox = {r: [] for r in range(NRANKS)}
    for src, dst, tag, value in schedule:
        outgoing[src].append((dst, tag, value))
        inbox[dst].append((src, tag, value))
    return outgoing, inbox


def _make_program(outgoing, plans):
    def program(ctx):
        comm = ctx.comm
        for dst, tag, value in outgoing[ctx.rank]:
            yield from comm.isend((ctx.rank, tag, value), dest=dst, tag=tag)
        received = []
        for source, tag in plans[ctx.rank]:
            payload, status = yield from comm.recv_status(source=source, tag=tag)
            received.append((status.source, status.tag, payload))
        return received

    return program


def _assert_delivery(results, inbox, what):
    """Exactly-once delivery and per-(src, tag) non-overtaking."""
    for rank in range(NRANKS):
        got = sorted(
            (src, tag, payload[2]) for src, tag, payload in results[rank]
        )
        assert got == sorted(inbox[rank]), f"{what}: rank {rank} inbox"
        seen: dict[tuple[int, int], list[int]] = {}
        for src, tag, payload in results[rank]:
            assert payload[0] == src and payload[1] == tag, (
                f"{what}: metadata/payload provenance mismatch"
            )
            seen.setdefault((src, tag), []).append(payload[2])
        sent: dict[tuple[int, int], list[int]] = {}
        for src, tag, value in inbox[rank]:
            sent.setdefault((src, tag), []).append(value)
        for channel, values in seen.items():
            assert values == sent[channel], (
                f"{what}: channel {channel} overtaken at rank {rank}"
            )


@settings(deadline=None, max_examples=60)
@given(schedule=sends, mode_per_rank=modes, seed=seeds)
def test_seeded_interleavings_stay_legal(schedule, mode_per_rank, seed):
    """Counting-satisfiable programs complete under every explored
    schedule — no deadlock, no lost/duplicated message, no overtaking."""
    outgoing, inbox = _traffic(schedule)
    plans = {r: _recv_plan(inbox[r], mode_per_rank[r]) for r in range(NRANKS)}
    results = run_program(
        _make_program(outgoing, plans), NRANKS, schedule_seed=seed
    )
    _assert_delivery(results, inbox, f"seed {seed}")


@settings(deadline=None, max_examples=60)
@given(schedule=sends, seed=seeds)
def test_wildcard_free_programs_are_schedule_deterministic(schedule, seed):
    """Without wildcard receives the program is dataflow-deterministic:
    every legal interleaving returns bit-identical results."""
    outgoing, inbox = _traffic(schedule)
    plans = {r: _recv_plan(inbox[r], "exact") for r in range(NRANKS)}
    canonical = run_program(_make_program(outgoing, plans), NRANKS)
    explored = run_program(
        _make_program(outgoing, plans), NRANKS, schedule_seed=seed
    )
    assert explored == canonical


@settings(deadline=None, max_examples=60)
@given(schedule=sends, seed=seeds)
def test_starvable_plans_deadlock_cleanly_and_replay(schedule, seed):
    """Wildcard-then-exact receive plans can starve under a permuted
    posting order. That outcome must be *attributed* (a DeadlockError
    naming blocked receivers) — never a crash, never a matching
    violation — and must replay exactly from the recorded trace."""
    outgoing, inbox = _traffic(schedule)
    plans = {}
    for rank in range(NRANKS):
        box = inbox[rank]
        half = len(box) // 2
        plans[rank] = [(ANY_SOURCE, ANY_TAG)] * half + [
            (src, tag) for src, tag, _ in box[half:]
        ]
    program = _make_program(outgoing, plans)
    engine = Engine(NRANKS, config=EngineConfig(schedule_seed=seed))
    try:
        results = engine.run(program)
    except DeadlockError as err:
        assert err.blocked, "deadlock with empty attribution"
        for rank, description in err.blocked.items():
            assert 0 <= rank < NRANKS
            assert "recv" in description, (
                f"blocked rank {rank} not blocked on a receive: {description}"
            )
        trace = engine.schedule_trace
        assert trace is not None
        replay = Engine(NRANKS, config=EngineConfig(schedule_trace=trace))
        try:
            replay.run(program)
            raise AssertionError("trace replay did not reproduce the deadlock")
        except DeadlockError as replay_err:
            assert replay_err.blocked == err.blocked
    else:
        _assert_delivery(results, inbox, f"starvable seed {seed}")
