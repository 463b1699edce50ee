"""Spectral (all-to-all) workload — the §V caveat, made testable.

The paper closes its evaluation with a warning: "The same results are
expected for other HPC applications, **except in the case of all-to-all
communications**" (§V). This workload exercises exactly that regime: a
pencil-decomposed 2-D transform where every iteration performs a global
transpose (``MPI_Alltoall``), so every process exchanges data with every
other and *no* partition of the processes can keep much traffic
intra-cluster — the logged fraction of a k-cluster partition is pinned
near ``1 - 1/k`` regardless of how clever the clustering is.

The compute step is a real separable transform (forward + inverse DFT via
``numpy.fft`` along alternating axes), bit-reproducible against a serial
reference like the stencil apps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.apps.workload import ExecutionMode
from repro.util.validation import check_positive


@dataclass(frozen=True)
class SpectralConfig:
    """Configuration of the pencil-decomposed transform workload.

    The global ``n × n`` complex field is split into ``nranks`` row pencils;
    each iteration applies an FFT along rows, transposes globally
    (all-to-all), applies an FFT along the (new) rows, damps the spectrum,
    and transforms back — a cut-down spectral solver time step.
    """

    nranks: int = 4
    n: int = 32
    iterations: int = 4
    damping: float = 0.99
    synthetic: bool = False
    mode: ExecutionMode = ExecutionMode.KERNELS

    def __post_init__(self) -> None:
        check_positive("nranks", self.nranks)
        check_positive("iterations", self.iterations, strict=False)
        if self.n % self.nranks:
            raise ValueError(
                f"grid side {self.n} not divisible by {self.nranks} ranks"
            )

    @property
    def rows_per_rank(self) -> int:
        """Pencil height owned by each rank."""
        return self.n // self.nranks

    @property
    def block_bytes(self) -> int:
        """Bytes of one all-to-all block (complex128)."""
        return self.rows_per_rank * self.rows_per_rank * 16


def initial_field(cfg: SpectralConfig) -> np.ndarray:
    """Deterministic full-grid initial condition (two crossed plane waves)."""
    ys, xs = np.meshgrid(
        np.arange(cfg.n, dtype=np.float64),
        np.arange(cfg.n, dtype=np.float64),
        indexing="ij",
    )
    return (
        np.sin(2.0 * np.pi * 3.0 * xs / cfg.n)
        + 0.5 * np.cos(2.0 * np.pi * 5.0 * ys / cfg.n)
    ).astype(np.complex128)


@dataclass(frozen=True)
class PencilGrid:
    """Minimal grid descriptor (interface parity with the stencil apps)."""

    nranks: int


class SpectralSimulation:
    """Builds rank programs for (and serial references of) one configuration."""

    def __init__(self, cfg: SpectralConfig):
        self.cfg = cfg
        self.grid = PencilGrid(cfg.nranks)

    @property
    def nranks(self) -> int:
        """Number of ranks the workload decomposes over."""
        return self.cfg.nranks

    def make_rank_state(self, rank: int) -> dict:
        """Initial pencil (rows ``rank·h … (rank+1)·h``) for ``rank``."""
        cfg = self.cfg
        h = cfg.rows_per_rank
        field = initial_field(cfg)
        return {"pencil": field[rank * h : (rank + 1) * h].copy(), "iteration": 0}

    @staticmethod
    def _blocks_of(pencil: np.ndarray, nranks: int) -> list[np.ndarray]:
        """Column blocks of a pencil, one per destination rank."""
        return [b.copy() for b in np.array_split(pencil, nranks, axis=1)]

    @staticmethod
    def _transpose_merge(blocks: list[np.ndarray]) -> np.ndarray:
        """Reassemble received blocks into the transposed pencil."""
        return np.concatenate([b.T for b in blocks], axis=1)

    def _transpose_wave(self, comm, *, kind: str):
        """Cached persistent wave of one synthetic all-to-all round.

        Compiled once per (rank, comm): the pairwise-exchange sends and
        explicit-source receives of one transpose, interleaved exactly as
        the per-message loop posts them. Both transpose rounds (and every
        iteration) restart the same wave.
        """
        user = comm.ctx.user
        # The key tuple holds the simulation itself (identity hash), so
        # the cache entry keeps it alive and a recycled id can never
        # resurrect a stale wave compiled for a different simulation.
        key = ("transpose_wave", self, comm.comm_id, kind)
        ops = user.get(key)
        if ops is None:
            wave = []
            recvs = []
            for step in range(1, comm.size):
                dst = (comm.rank + step) % comm.size
                src = (comm.rank - step) % comm.size
                wave.append(
                    comm.send_init(
                        None,
                        dest=dst,
                        tag=777,
                        nbytes=self.cfg.block_bytes,
                        kind=kind,
                    )
                )
                recv = comm.recv_init(source=src, tag=777)
                wave.append(recv)
                recvs.append(recv)
            ops = user[key] = (
                comm.start_all_op(tuple(wave)),
                comm.waitall_op(tuple(recvs)),
            )
        return ops

    def step(self, comm, state: dict, *, kind: str = "transpose"):
        """One iteration: FFT rows → global transpose → FFT rows →
        damp → inverse transform (transpose back included).

        Generator coroutine (``yield from`` it inside a rank program).
        """
        cfg = self.cfg
        if cfg.synthetic:
            # Two all-to-alls per iteration, metadata only. Mirrors the
            # pairwise-exchange algorithm (no self-message), posting every
            # send and explicit-source receive of a round before draining
            # it — the wave path and the per-message reference share this
            # structure, so their stamps, traces and clocks are identical.
            if cfg.mode.use_waves and getattr(comm, "supports_waves", False):
                start, drain = self._transpose_wave(comm, kind=kind)
                for _ in range(2):
                    yield start
                    yield drain
            else:
                for _ in range(2):
                    recvs = []
                    for step in range(1, comm.size):
                        dst = (comm.rank + step) % comm.size
                        src = (comm.rank - step) % comm.size
                        yield from comm.isend(
                            None,
                            dest=dst,
                            tag=777,
                            nbytes=cfg.block_bytes,
                            kind=kind,
                        )
                        recvs.append(
                            (yield from comm.irecv(source=src, tag=777))
                        )
                    yield from comm.waitall(recvs)
            state["iteration"] += 1
            return

        pencil = state["pencil"]
        work = np.fft.fft(pencil, axis=1)
        blocks = yield from comm.alltoall(self._blocks_of(work, comm.size))
        work = self._transpose_merge(blocks)
        work = np.fft.fft(work, axis=1)
        work *= cfg.damping
        work = np.fft.ifft(work, axis=1)
        blocks = yield from comm.alltoall(self._blocks_of(work, comm.size))
        work = self._transpose_merge(blocks)
        state["pencil"] = np.fft.ifft(work, axis=1)
        state["iteration"] += 1

    def make_program(self, *, iterations: int | None = None, hook: Callable | None = None):
        """Rank-program factory (same interface as the stencil apps)."""
        niter = self.cfg.iterations if iterations is None else iterations

        def program(ctx):
            comm = ctx.comm
            if comm.size != self.cfg.nranks:
                raise ValueError(
                    f"communicator size {comm.size} != {self.cfg.nranks}"
                )
            state = (
                {"iteration": 0}
                if self.cfg.synthetic
                else self.make_rank_state(comm.rank)
            )
            if (
                hook is None
                and self.cfg.synthetic
                and self.cfg.mode.use_kernels
                and getattr(comm, "supports_waves", False)
                and state["iteration"] < niter
            ):
                from repro.simmpi.engine import KernelLoop

                start, drain = self._transpose_wave(comm, kind="transpose")
                # Two transpose rounds per iteration — same wave twice.
                remaining = niter - state["iteration"]
                yield KernelLoop(start, drain, 2 * remaining)
                state["iteration"] = niter
                return state
            while state["iteration"] < niter:
                if hook is not None:
                    yield from hook(ctx, comm, self, state, state["iteration"])
                yield from self.step(comm, state)
            return state

        return program

    def run_serial_reference(self, iterations: int | None = None) -> np.ndarray:
        """Undecomposed reference of the same transform sequence."""
        cfg = self.cfg
        if cfg.synthetic:
            raise ValueError("serial reference requires real payloads")
        niter = cfg.iterations if iterations is None else iterations
        field = initial_field(cfg)
        for _ in range(niter):
            work = np.fft.fft(field, axis=1)
            work = work.T
            work = np.fft.fft(work, axis=1)
            work *= cfg.damping
            work = np.fft.ifft(work, axis=1)
            work = work.T
            field = np.fft.ifft(work, axis=1)
        return field

    def gather_global_field(self, states: list[dict]) -> np.ndarray:
        """Stitch pencils back into the global field."""
        return np.concatenate([s["pencil"] for s in states], axis=0)
