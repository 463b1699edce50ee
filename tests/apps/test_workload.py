"""Workload protocol and the app configs' ExecutionMode field."""

import pickle
from dataclasses import replace

import pytest

from repro.apps import (
    HeatConfig,
    SpectralConfig,
    TsunamiConfig,
)
from repro.apps.workload import (
    ExecutionMode,
    FTIWorkload,
    HeatWorkload,
    ProgramsWorkload,
    SpectralWorkload,
    TsunamiWorkload,
    fig5_workload,
)


class TestExecutionMode:
    def test_flag_properties(self):
        assert not ExecutionMode.PER_MESSAGE.use_waves
        assert not ExecutionMode.PER_MESSAGE.use_kernels
        assert ExecutionMode.WAVES.use_waves
        assert not ExecutionMode.WAVES.use_kernels
        assert ExecutionMode.KERNELS.use_waves
        assert ExecutionMode.KERNELS.use_kernels


class TestConfigMode:
    @pytest.mark.parametrize(
        "cfg_cls", [HeatConfig, SpectralConfig, TsunamiConfig]
    )
    def test_default_is_kernels(self, cfg_cls):
        cfg = cfg_cls()
        assert cfg.mode is ExecutionMode.KERNELS
        assert cfg.mode.use_waves and cfg.mode.use_kernels

    def test_mode_alone_derives_booleans(self):
        for mode in ExecutionMode:
            cfg = TsunamiConfig(mode=mode)
            assert cfg.mode is mode
            assert (cfg.mode.use_waves, cfg.mode.use_kernels) == (
                mode.use_waves,
                mode.use_kernels,
            )
            assert not hasattr(cfg, "use_waves")
            assert not hasattr(cfg, "use_kernels")

    def test_replace_switches_mode(self):
        cfg = HeatConfig(px=2, py=2, mode=ExecutionMode.KERNELS)
        switched = replace(cfg, mode=ExecutionMode.PER_MESSAGE)
        assert switched.mode is ExecutionMode.PER_MESSAGE
        assert not switched.mode.use_waves
        assert not switched.mode.use_kernels

    @pytest.mark.parametrize(
        "cfg_cls", [HeatConfig, SpectralConfig, TsunamiConfig]
    )
    @pytest.mark.parametrize("flag", ["use_waves", "use_kernels"])
    def test_boolean_flags_rejected(self, cfg_cls, flag):
        with pytest.raises(TypeError, match=flag):
            cfg_cls(**{flag: False})


class TestWorkloadProtocol:
    @pytest.mark.parametrize(
        "workload",
        [
            HeatWorkload(HeatConfig(px=2, py=2, nx=8, ny=8, iterations=2)),
            TsunamiWorkload(
                TsunamiConfig(px=2, py=2, nx=8, ny=8, iterations=2)
            ),
            SpectralWorkload(SpectralConfig(nranks=4, n=8, iterations=1)),
            fig5_workload(nodes=2, app_per_node=2, iterations=2),
        ],
        ids=["heat", "tsunami", "spectral", "fig5"],
    )
    def test_pickle_round_trip(self, workload):
        workload.build_programs()  # populate the lazy cache
        clone = pickle.loads(pickle.dumps(workload))
        assert clone == workload
        assert clone.nranks == workload.nranks
        assert "_program_cache" not in clone.__dict__  # cache dropped
        assert len(clone.build_programs()) == clone.nranks

    def test_build_program_validates_rank(self):
        workload = HeatWorkload(HeatConfig(px=2, py=2))
        with pytest.raises(ValueError, match="outside world"):
            workload.build_program(4)

    def test_default_atoms_are_single_ranks(self):
        workload = SpectralWorkload(SpectralConfig(nranks=3, n=9))
        assert workload.shard_atoms() == [(0,), (1,), (2,)]

    def test_fti_atoms_are_node_blocks(self):
        workload = fig5_workload(nodes=2, app_per_node=3, iterations=1)
        assert workload.shard_atoms() == [(0, 1, 2, 3), (4, 5, 6, 7)]

    def test_programs_workload_custom_atoms(self):
        def idle(ctx):
            if False:
                yield

        workload = ProgramsWorkload([idle] * 4, atoms=[(0, 1), (2, 3)])
        assert workload.nranks == 4
        assert workload.shard_atoms() == [(0, 1), (2, 3)]
        assert workload.build_program(2) is idle


class TestFig5Workload:
    def test_world_shape(self):
        workload = fig5_workload(nodes=4, app_per_node=4, iterations=2)
        assert workload.nranks == 4 * (4 + 1)
        assert workload.sim_cfg.px * workload.sim_cfg.py == 16
        assert workload.sim_cfg.synthetic

    def test_paper_scale_keeps_32x32_grid(self):
        workload = fig5_workload()  # nodes=64, app_per_node=16 → 1024 app
        assert workload.sim_cfg.px == 32
        assert workload.sim_cfg.py == 32
        assert workload.nranks == 64 * 17

    def test_non_square_counts_factor_most_square(self):
        workload = fig5_workload(nodes=8, app_per_node=4, iterations=1)
        assert workload.sim_cfg.px * workload.sim_cfg.py == 32
        assert workload.sim_cfg.px in (4, 8)  # 4×8, the most-square split
