"""Direct ReplayCommunicator unit tests (edge cases beyond the recovery
integration suite)."""

import numpy as np
import pytest

from repro.hydee import MessageLog, ReplayCommunicator
from repro.hydee.logging import ReplayMismatchError
from repro.simmpi import CommunicatorError, Engine
from repro.simmpi.request import ANY_SOURCE


def replay_engine(members, original_size, log, counts, body):
    """Run `body(comm)` as the single replayed member program."""
    outbound = []
    cursor = log.cursor(counts)

    def make_program(i):
        def program(ctx):
            comm = ReplayCommunicator(
                ctx, members, original_size, cursor, outbound
            )
            result = yield from body(comm)
            return result

        return program

    engine = Engine(len(members))
    results = engine.run([make_program(i) for i in range(len(members))])
    return results, outbound


def make_log():
    # World of 4: clusters {0,1} vs {2,3}; we replay {0,1}.
    log = MessageLog(np.array([0, 0, 1, 1]))
    return log


class TestIdentity:
    def test_rank_and_size_report_original_world(self):
        log = make_log()

        def body(comm):
            if False:
                yield
            return (comm.rank, comm.size)

        results, _ = replay_engine([0, 1], 4, log, {}, body)
        assert results == [(0, 4), (1, 4)]


class TestRouting:
    def test_intra_member_messages_flow(self):
        log = make_log()

        def body(comm):
            if comm.rank == 0:
                yield from comm.send("hello", dest=1, tag=3)
                return None
            return (yield from comm.recv(source=0, tag=3))

        results, _ = replay_engine([0, 1], 4, log, {}, body)
        assert results[1] == "hello"

    def test_external_recv_served_from_log_at_position(self):
        log = make_log()
        for i in range(3):
            log.record(2, 0, tag=9, payload=f"m{i}", nbytes=2, kind="p2p")

        def body(comm):
            if comm.rank == 0:
                return (yield from comm.recv(source=2, tag=9))
            if False:
                yield
            return None

        results, _ = replay_engine([0, 1], 4, log, {(2, 0): 1}, body)
        assert results[0] == "m1"  # position 0 was consumed pre-checkpoint

    def test_external_send_suppressed_and_captured(self):
        log = make_log()

        def body(comm):
            if comm.rank == 0:
                yield from comm.send(b"data", dest=3, tag=4)
            return None

        _, outbound = replay_engine([0, 1], 4, log, {}, body)
        assert len(outbound) == 1
        record = outbound[0]
        assert (record.src, record.dst, record.tag) == (0, 3, 4)
        assert record.nbytes == 4


class TestRefusals:
    def test_wildcard_source_rejected(self):
        log = make_log()

        def body(comm):
            if comm.rank == 0:
                with pytest.raises(CommunicatorError, match="wildcard"):
                    yield from comm.recv(source=ANY_SOURCE, tag=0)
            if False:
                yield
            return None

        replay_engine([0, 1], 4, log, {}, body)

    def test_split_rejected(self):
        log = make_log()

        def body(comm):
            if comm.rank == 0:
                with pytest.raises(CommunicatorError, match="replay"):
                    yield from comm.split(color=0)
            if False:
                yield
            return None

        replay_engine([0, 1], 4, log, {}, body)

    def test_persistent_requests_rejected(self):
        """Persistent starts would bypass log serving and send suppression;
        replay refuses the whole persistent API explicitly."""
        log = make_log()

        def body(comm):
            if comm.rank == 0:
                with pytest.raises(CommunicatorError, match="persistent"):
                    comm.recv_init(source=1, tag=0)
                with pytest.raises(CommunicatorError, match="persistent"):
                    comm.send_init(b"x", dest=1)
                with pytest.raises(CommunicatorError, match="persistent"):
                    yield from comm.start_all([])
            if False:
                yield
            return None

        replay_engine([0, 1], 4, log, {}, body)

    def test_advertises_no_wave_support(self):
        """Wave-native apps key their fallback off ``supports_waves``: a
        replay window must step through the per-message exchange, which is
        what the log can serve."""
        from repro.simmpi import Communicator

        assert Communicator.supports_waves is True
        assert ReplayCommunicator.supports_waves is False

    def test_wave_native_app_steps_fall_back_to_per_message(self):
        """A wave-native simulation (the default mode) steps
        transparently through a ReplayCommunicator — the app detects the
        missing wave support instead of calling the refused API."""
        from repro.apps import TsunamiConfig, TsunamiSimulation

        cfg = TsunamiConfig(px=2, py=2, nx=8, ny=8, iterations=2)
        sim = TsunamiSimulation(cfg)
        assert cfg.mode.use_waves
        log = MessageLog(np.array([0, 0, 1, 1]))

        def body(comm):
            state = sim.make_rank_state(comm.rank)
            # Members {0,1} exchange east-west only with each other on a
            # 2x2 grid... rank 0's south neighbor is 2 (external), so the
            # exchange needs the log for the (2,0)/(3,1) channels.
            yield from sim.step(comm, state)
            return state["iteration"]

        edge = cfg.grid.tile_nx * 3 * 8
        for src, dst in ((2, 0), (3, 1)):
            log.record(
                src, dst, tag=1000 + 0, payload=np.zeros(edge // 8),
                nbytes=edge, kind="halo",
            )
        results, outbound = replay_engine([0, 1], 4, log, {}, body)
        assert results == [1, 1]
        # The sends toward the survivors (ranks 2, 3) were suppressed.
        assert sorted((r.src, r.dst) for r in outbound) == [(0, 2), (1, 3)]

    def test_kernel_flagged_app_falls_back_through_replay(self):
        """A kernel-flagged app (the default mode) never
        emits a KernelLoop under a ReplayCommunicator: the gate keys off
        ``supports_waves`` exactly like the wave fallback, so the whole
        rank program — not just one step — runs per-message. (If the gate
        broke, the program would call the refused persistent-request API
        and this test would see CommunicatorError.)"""
        from types import SimpleNamespace

        from repro.apps import TsunamiConfig, TsunamiSimulation

        cfg = TsunamiConfig(
            px=2, py=2, nx=8, ny=8, iterations=2, synthetic=True,
            allreduce_every=0,
        )
        sim = TsunamiSimulation(cfg)
        assert cfg.mode.use_kernels and cfg.mode.use_waves
        log = MessageLog(np.array([0, 0, 1, 1]))
        edge = cfg.grid.tile_nx * 3 * 8
        for _ in range(cfg.iterations):
            for src, dst in ((2, 0), (3, 1)):
                log.record(
                    src, dst, tag=1000 + 0, payload=np.zeros(edge // 8),
                    nbytes=edge, kind="halo",
                )
        program = sim.make_program()

        def body(comm):
            state = yield from program(SimpleNamespace(comm=comm))
            return state["iteration"]

        results, outbound = replay_engine([0, 1], 4, log, {}, body)
        assert results == [2, 2]
        assert sorted((r.src, r.dst) for r in outbound) == [
            (0, 2), (0, 2), (1, 3), (1, 3),
        ]

    def test_out_of_world_destination_rejected(self):
        log = make_log()

        def body(comm):
            if comm.rank == 0:
                with pytest.raises(CommunicatorError):
                    yield from comm.send("x", dest=99)
            if False:
                yield
            return None

        replay_engine([0, 1], 4, log, {}, body)

    def test_exhausted_log_raises_mismatch(self):
        log = make_log()

        def body(comm):
            if comm.rank == 0:
                with pytest.raises(ReplayMismatchError):
                    yield from comm.recv(source=2, tag=0)
            if False:
                yield
            return None

        replay_engine([0, 1], 4, log, {}, body)
