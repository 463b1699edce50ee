"""EngineConfig: the one picklable object that fully describes a run."""

import pickle

import numpy as np
import pytest

from repro.simmpi import Engine, EngineConfig, TraceRecorder


def _ping_pong(ctx):
    if ctx.rank == 0:
        yield from ctx.comm.isend(b"x" * 64, dest=1, tag=3)
        reply = yield from ctx.comm.recv(source=1, tag=4)
        return reply
    payload = yield from ctx.comm.recv(source=0, tag=3)
    yield from ctx.comm.isend(payload, dest=0, tag=4)
    return payload


class TestConstruction:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.use_fast_collectives
        assert cfg.use_batched_p2p
        assert cfg.use_kernels
        assert cfg.pool_capacity == 512
        assert cfg.schedule_seed is None
        assert cfg.schedule_trace is None
        assert cfg.failure_ranks == frozenset()
        assert not cfg.track_recv_counts

    def test_equality_and_hash(self):
        assert EngineConfig() == EngineConfig()
        assert hash(EngineConfig()) == hash(EngineConfig())
        assert EngineConfig(use_kernels=False) != EngineConfig()

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineConfig().pool_capacity = 7

    def test_failure_ranks_coerced_to_frozenset(self):
        cfg = EngineConfig(failure_ranks=[3, 1, 3])
        assert cfg.failure_ranks == frozenset({1, 3})
        assert isinstance(cfg.failure_ranks, frozenset)

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(pool_capacity=0)
        with pytest.raises(ValueError):
            EngineConfig(schedule_seed="not-an-int")
        with pytest.raises(ValueError):
            EngineConfig(failure_ranks=[-1])


class TestPickling:
    @pytest.mark.parametrize(
        "cfg",
        [
            EngineConfig(),
            EngineConfig(use_batched_p2p=False, pool_capacity=16),
            EngineConfig(schedule_seed=42, failure_ranks=(2, 5)),
        ],
    )
    def test_round_trip(self, cfg):
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert hash(clone) == hash(cfg)


class TestEngineIntegration:
    def test_config_is_primary_constructor(self):
        """Reference-path flags change how messages are priced, never which
        messages flow."""
        cfg = EngineConfig(use_batched_p2p=False, use_kernels=False)
        tracer_a = TraceRecorder(2)
        tracer_b = TraceRecorder(2)
        engine = Engine(2, config=cfg, tracer=tracer_a)
        engine.run([_ping_pong] * 2)
        assert engine.config is cfg
        assert not engine.use_batched_p2p and not engine.use_kernels
        Engine(2, tracer=tracer_b).run([_ping_pong] * 2)
        np.testing.assert_array_equal(
            tracer_a.bytes_matrix, tracer_b.bytes_matrix
        )

    @pytest.mark.parametrize(
        "legacy",
        [
            "use_fast_collectives",
            "use_batched_p2p",
            "use_kernels",
            "pool_capacity",
            "schedule_seed",
            "schedule_trace",
        ],
    )
    def test_legacy_kwargs_rejected(self, legacy):
        """Every engine knob is set through EngineConfig, never a keyword."""
        with pytest.raises(TypeError, match=legacy):
            Engine(2, **{legacy: getattr(EngineConfig(), legacy)})

    def test_config_and_legacy_kwargs_conflict(self):
        with pytest.raises(TypeError, match="pool_capacity"):
            Engine(2, config=EngineConfig(), pool_capacity=9)
