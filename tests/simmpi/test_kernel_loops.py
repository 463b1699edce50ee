"""Equivalence and deopt suite for kernelized steady-state loops.

A rank program can hand the engine its whole steady loop as one
:class:`~repro.simmpi.KernelLoop` op. When every unfinished rank does so
with the same iteration count and purely static wave traffic, the engine
compiles the world's iteration into a closed-form kernel (no posting, no
generator wakeups); otherwise it deopts to the interpreted micro-step
expansion. Both paths must be indistinguishable from writing the loop out
by hand: identical results, bit-identical per-rank virtual clocks,
byte-identical traces. Every deopt reason is exercised here and counted
via ``Engine.kernel_deopts``.
"""

import numpy as np
import pytest

from repro.simmpi import (
    ANY_SOURCE,
    Engine,
    EngineConfig,
    KernelLoop,
    TraceRecorder,
)
from repro.simmpi.collectives import max_op, sum_op
from repro.simmpi.errors import MatchingError

from test_fast_collectives import two_level_network  # same-directory module

RING_TAG = 7
RING_BYTES = 1 << 14


def _ring_ops(comm):
    """Persistent ring wave: send right, receive from the left."""
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    send = comm.send_init(
        None, dest=right, tag=RING_TAG, nbytes=RING_BYTES, kind="ring"
    )
    recv = comm.recv_init(source=left, tag=RING_TAG)
    start = comm.start_all_op((send, recv))
    drain = comm.waitall_op((recv,))
    return start, drain


def kernel_ring_program(iterations):
    def program(ctx):
        start, drain = _ring_ops(ctx.comm)
        results = yield KernelLoop(start, drain, iterations)
        return results

    return program


def interpreted_ring_program(iterations):
    def program(ctx):
        start, drain = _ring_ops(ctx.comm)
        results = None
        for _ in range(iterations):
            yield start
            results = yield drain
        return results

    return program


def run_engine(program, size, **config_kwargs):
    tracer = TraceRecorder(size, by_kind=True)
    engine = Engine(
        size,
        config=EngineConfig(**config_kwargs),
        network=two_level_network(),
        tracer=tracer,
    )
    results = engine.run(program)
    return {
        "results": results,
        "clocks": engine.rank_times(),
        "tracer": tracer,
        "engine": engine,
    }


def assert_records_equal(ref, other, what):
    assert ref["results"] == other["results"], f"{what}: results diverge"
    assert ref["clocks"] == other["clocks"], f"{what}: clocks diverge"
    np.testing.assert_array_equal(
        ref["tracer"].bytes_matrix, other["tracer"].bytes_matrix
    )
    np.testing.assert_array_equal(
        ref["tracer"].count_matrix, other["tracer"].count_matrix
    )
    assert sorted(ref["tracer"].kind_matrices) == sorted(
        other["tracer"].kind_matrices
    )
    for kind, mat in ref["tracer"].kind_matrices.items():
        np.testing.assert_array_equal(mat, other["tracer"].kind_matrices[kind])


class TestKernelEquivalence:
    @pytest.mark.parametrize("size,iterations", [(2, 1), (4, 5), (8, 12)])
    def test_matches_interpreted_loop(self, size, iterations):
        ref = run_engine(interpreted_ring_program(iterations), size)
        kern = run_engine(kernel_ring_program(iterations), size)
        assert_records_equal(ref, kern, "kernel vs hand-written loop")
        assert kern["engine"].kernel_runs == 1
        assert kern["engine"].kernel_iterations == iterations
        assert kern["engine"].kernel_deopts == {}

    def test_interpreted_kernel_op_matches_too(self, size=4, iterations=6):
        """``use_kernels=False`` still executes the op — via micro-steps."""
        ref = run_engine(interpreted_ring_program(iterations), size)
        micro = run_engine(
            kernel_ring_program(iterations), size, use_kernels=False
        )
        assert_records_equal(ref, micro, "micro-step kernel op vs loop")
        assert micro["engine"].kernel_runs == 0
        assert micro["engine"].kernel_deopts.get("engine-gated") == size

    def test_sequential_kernels_reuse_the_compiled_kernel(self):
        """Chunked loops (same ops, several KernelLoop yields) hit the
        kernel cache: one compilation, one run per chunk."""

        def program(ctx):
            start, drain = _ring_ops(ctx.comm)
            for chunk in (3, 4):
                yield KernelLoop(start, drain, chunk)
            return "ok"

        def interpreted(ctx):
            start, drain = _ring_ops(ctx.comm)
            for _ in range(7):
                yield start
                yield drain
            return "ok"

        ref = run_engine(interpreted, 4)
        kern = run_engine(program, 4)
        assert_records_equal(ref, kern, "chunked kernels vs loop")
        assert kern["engine"].kernel_runs == 2
        assert kern["engine"].kernel_iterations == 7

    def test_fused_collective_window(self):
        """A trailing allreduce rides in the kernel's fused window and the
        per-rank result comes back through the (results, window) reply."""

        def kernelized(ctx):
            comm = ctx.comm
            start, drain = _ring_ops(comm)
            _, window = yield KernelLoop(
                start, drain, 4, (comm.allreduce_op(float(ctx.rank), sum_op),)
            )
            return window[0]

        def interpreted(ctx):
            comm = ctx.comm
            start, drain = _ring_ops(comm)
            for _ in range(4):
                yield start
                yield drain
            total = yield from comm.allreduce(float(ctx.rank), sum_op)
            return total

        ref = run_engine(interpreted, 4)
        kern = run_engine(kernelized, 4)
        assert_records_equal(ref, kern, "fused window vs trailing allreduce")
        assert kern["results"] == [6.0] * 4
        assert kern["engine"].kernel_runs == 1

    def test_multi_collective_window(self):
        """Back-to-back same-group collectives fuse into one window."""

        def kernelized(ctx):
            comm = ctx.comm
            start, drain = _ring_ops(comm)
            _, window = yield KernelLoop(
                start,
                drain,
                3,
                (
                    comm.allreduce_op(float(ctx.rank), sum_op),
                    comm.allreduce_op(float(ctx.rank), max_op),
                ),
            )
            return window

        def interpreted(ctx):
            comm = ctx.comm
            start, drain = _ring_ops(comm)
            for _ in range(3):
                yield start
                yield drain
            total = yield from comm.allreduce(float(ctx.rank), sum_op)
            peak = yield from comm.allreduce(float(ctx.rank), max_op)
            return [total, peak]

        ref = run_engine(interpreted, 4)
        kern = run_engine(kernelized, 4)
        assert_records_equal(ref, kern, "two-collective window")
        assert kern["results"] == [[6.0, 3.0]] * 4

    def test_results_are_final_iteration_payloads(self):
        """The reply is the last drain's payload list (captured sends
        deliver real payloads; intermediate iterations are discarded)."""

        def program(ctx):
            comm = ctx.comm
            start, drain = _ring_ops(comm)
            results = yield KernelLoop(start, drain, 3)
            return results

        out = run_engine(program, 2)
        # Synthetic (metadata-only) waves drain ``None`` payloads.
        assert out["results"] == [[None]] * 2


class TestKernelDeopts:
    def test_engine_gated_by_message_log(self):
        iterations = 4

        class Log:
            def __init__(self):
                self.entries = []

            def wants(self, src, dst):
                return True

            def record(self, src, dst, tag, payload, nbytes, kind):
                self.entries.append((src, dst, tag, nbytes, kind))

        def with_log(use_kernels):
            tracer = TraceRecorder(4, by_kind=True)
            engine = Engine(
                4,
                config=EngineConfig(use_kernels=use_kernels),
                network=two_level_network(),
                tracer=tracer,
            )
            engine.message_log = Log()
            results = engine.run(kernel_ring_program(iterations))
            return {
                "results": results,
                "clocks": engine.rank_times(),
                "tracer": tracer,
                "engine": engine,
            }

        gated = with_log(True)
        micro = with_log(False)
        assert_records_equal(micro, gated, "message_log gating")
        assert gated["engine"].kernel_runs == 0
        assert gated["engine"].kernel_deopts.get("engine-gated") == 4
        assert (
            gated["engine"].message_log.entries
            == micro["engine"].message_log.entries
        )

    def test_partial_world_deopts(self):
        """One rank looping by hand denies the whole-world hold."""
        iterations = 5

        def mixed(kernel_half):
            def program(ctx):
                start, drain = _ring_ops(ctx.comm)
                if kernel_half and ctx.rank % 2 == 0:
                    yield KernelLoop(start, drain, iterations)
                else:
                    for _ in range(iterations):
                        yield start
                        yield drain
                return ctx.rank

            return program

        ref = run_engine(mixed(False), 4)
        kern = run_engine(mixed(True), 4)
        assert_records_equal(ref, kern, "partial world")
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts.get("partial-world") == 1

    def test_iteration_mismatch_deopts(self):
        """Unequal iteration counts interpret correctly (self-traffic so
        the program stays matched either way)."""

        def self_program(kernel):
            def program(ctx):
                comm = ctx.comm
                send = comm.send_init(
                    None, dest=comm.rank, tag=3, nbytes=64, kind="self"
                )
                recv = comm.recv_init(source=comm.rank, tag=3)
                start = comm.start_all_op((send, recv))
                drain = comm.waitall_op((recv,))
                n = 2 + ctx.rank
                if kernel:
                    yield KernelLoop(start, drain, n)
                else:
                    for _ in range(n):
                        yield start
                        yield drain
                return n

            return program

        ref = run_engine(self_program(False), 3)
        kern = run_engine(self_program(True), 3)
        assert_records_equal(ref, kern, "iteration mismatch")
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts.get("iteration-mismatch") == 1

    def test_wildcard_recv_deopts(self):
        def wild(kernel):
            def program(ctx):
                comm = ctx.comm
                right = (comm.rank + 1) % comm.size
                send = comm.send_init(
                    None, dest=right, tag=RING_TAG, nbytes=256, kind="ring"
                )
                recv = comm.recv_init(source=ANY_SOURCE, tag=RING_TAG)
                start = comm.start_all_op((send, recv))
                drain = comm.waitall_op((recv,))
                if kernel:
                    yield KernelLoop(start, drain, 3)
                else:
                    for _ in range(3):
                        yield start
                        yield drain
                return None

            return program

        ref = run_engine(wild(False), 4)
        kern = run_engine(wild(True), 4)
        assert_records_equal(ref, kern, "wildcard recv")
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts.get("wildcard-recv") == 1

    def test_capture_send_deopts(self):
        """Payload-capturing sends can change per iteration — the kernel
        refuses them and the micro-step path delivers real payloads."""

        def captured(kernel):
            def program(ctx):
                comm = ctx.comm
                right = (comm.rank + 1) % comm.size
                left = (comm.rank - 1) % comm.size
                buf = np.full(4, float(ctx.rank))
                send = comm.send_init(buf, dest=right, tag=9, kind="ring")
                recv = comm.recv_init(source=left, tag=9)
                start = comm.start_all_op((send, recv))
                drain = comm.waitall_op((recv,))
                if kernel:
                    results = yield KernelLoop(start, drain, 2)
                else:
                    for _ in range(2):
                        yield start
                        results = yield drain
                return [float(r[0]) for r in results]

            return program

        ref = run_engine(captured(False), 4)
        kern = run_engine(captured(True), 4)
        assert_records_equal(ref, kern, "capture send")
        assert kern["results"] == [[3.0], [0.0], [1.0], [2.0]]
        assert kern["engine"].kernel_runs == 0
        assert kern["engine"].kernel_deopts.get("capture-send") == 1

    def test_no_traffic_deopts(self):
        """A single-rank world with an empty wave spins interpretively."""

        def program(ctx):
            comm = ctx.comm
            start = comm.start_all_op(())
            drain = comm.waitall_op(())
            yield KernelLoop(start, drain, 4)
            return "done"

        out = run_engine(program, 1)
        assert out["results"] == ["done"]
        assert out["engine"].kernel_runs == 0
        assert out["engine"].kernel_deopts.get("no-traffic") == 1


class TestKernelValidation:
    def test_zero_iterations_rejected(self):
        def program(ctx):
            start, drain = _ring_ops(ctx.comm)
            yield KernelLoop(start, drain, 0)

        with pytest.raises(MatchingError):
            run_engine(program, 2)

    def test_wrong_op_types_rejected(self):
        def program(ctx):
            start, drain = _ring_ops(ctx.comm)
            yield KernelLoop(drain, start, 2)

        with pytest.raises(MatchingError):
            run_engine(program, 2)
