"""Top-level BitWave NPU simulator (paper Fig. 11).

Executes fully-connected and convolution layers through the structural
datapath -- ZCIP parsing of real BCS index bytes, BCE column processing,
fetcher traffic at Table I bandwidths -- producing bit-exact integer
outputs plus a cycle/traffic report.

A layer's cycle and traffic counters follow from its weights alone:
each group's index byte fixes its ZCIP sync counter, and activation
values never change the count.  :meth:`BitWaveNPU.matmul_counters`
computes exactly those counters -- index bytes encoded, decoded through
the ZCIP lookup tables, reduced under segment lockstep -- with no
activations, bit planes, GEMM or energy; whole-network evaluation and
the Section V-B table (:mod:`repro.eval.lowering`) run on it.

:meth:`BitWaveNPU.run_fc` is the functional simulator: it decodes the
whole ``(K, n_groups)`` index array through the ZCIP lookup tables,
computes the outputs as one batched GEMM per streamed bit plane
(:class:`repro.sim.bce.BitPlaneEngine`) and takes its counters from
the same epilog.  The backend-equivalence tests hold its outputs and
counters to a column-serial oracle (one ZCIP parse and one bit-column
pass per group) that lives with the tests.

Cycle semantics match the analytical model of
:mod:`repro.accelerators.bitwave`:

- groups inside one 64-bit weight segment (8 adjacent kernels at the
  same channel slice) advance in lockstep, so a segment context costs
  the *maximum* sync counter of its groups;
- the ``Ku / 8`` segments of a kernel tile stream through parallel
  banks (pipelined, no cross-segment sync);
- output contexts beyond the spatial ``OXu`` unroll serialize.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from repro.arch import ArchSpec, default_arch
from repro.arch.spec import SEGMENT_KERNELS  # noqa: F401  (canonical home)
from repro.core.bitcolumn import index_bytes, weight_bytes
from repro.core.signmag import as_int8
from repro.obs import counter, trace
from repro.sim.bce import BitPlaneEngine
from repro.sim.energy import SimEnergyBreakdown, price_matmul
from repro.sim.fetcher import DataFetcher
from repro.sim.zcip import ZeroColumnIndexParser
from repro.utils.bits import unpack_bits


@dataclass(frozen=True)
class MatmulCounters:
    """Cycle and traffic counters of one matmul over its output contexts."""

    compute_cycles: int
    fetch_cycles: int
    column_ops: int
    #: Compressed weight stream, per-group index bytes included (bits).
    weight_bits_fetched: int
    #: Uncompressed weight footprint (bits).
    dense_weight_bits: int

    @property
    def total_cycles(self) -> int:
        """Compute and fetch overlap; the longer stream dominates."""
        return max(self.compute_cycles, self.fetch_cycles)

    @property
    def compression_ratio(self) -> float:
        fetched = self.weight_bits_fetched
        return self.dense_weight_bits / fetched if fetched else float("inf")


@dataclass(frozen=True)
class LayerRun(MatmulCounters):
    """Result of simulating one layer: counters, outputs and energy.

    ``energy`` prices this run's structural counters with the NPU's
    :class:`repro.arch.TechSpec` (every tensor moved on/off chip once);
    whole-network evaluations price full-layer counters through
    :mod:`repro.eval.lowering` instead.
    """

    outputs: np.ndarray
    energy: SimEnergyBreakdown

    @property
    def energy_pj(self) -> float:
        """Total priced energy of this run."""
        return self.energy.total_pj


class BitWaveNPU:
    """Structural simulator of the 512-BCE array.

    The PE-array geometry -- BCS group size, kernel/spatial unrolls,
    fetch bandwidths, ZCIP column mode -- and the technology point
    pricing the energy epilog come from one :class:`repro.arch.ArchSpec`
    (the same typed hardware description the analytical model
    consumes), defaulting to the paper's system point.
    """

    def __init__(self, arch: ArchSpec | None = None) -> None:
        self.arch = arch if arch is not None else default_arch()
        self.tech = self.arch.technology()
        self.group_size = self.arch.group_size
        self.ku = self.arch.ku
        self.oxu = self.arch.oxu
        self.parser = ZeroColumnIndexParser(
            self.arch.dense_precision if self.arch.columns == "dense"
            else None)
        self.fetcher = DataFetcher(self.arch.weight_bw_bits,
                                   self.arch.act_bw_bits)

    # ------------------------------------------------------------------
    def _group_bytes(
        self, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Group each kernel row into sign-magnitude bytes.

        ``weights`` is ``(K, C)`` int8; returns ``(data, index)`` with
        data ``(K, n_groups, G)`` and index bytes ``(K, n_groups)``
        exactly as BCS compression would store them.
        """
        k, c = weights.shape
        g = self.group_size
        weights = np.pad(weights, ((0, 0), (0, (-c) % g)))
        data = weight_bytes(weights.reshape(k, -1, g))  # (K, ng, G)
        return data, index_bytes(data, g).reshape(data.shape[:2])

    def _encode_groups(
        self, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group each kernel row and extract SM planes.

        Returns ``(planes, signs, index)`` with planes
        ``(K, n_groups, 8, G)``, signs ``(K, n_groups, G)`` and the
        index bytes of :meth:`_group_bytes`.
        """
        data, index = self._group_bytes(weights)
        planes = unpack_bits(data).transpose(0, 1, 3, 2)  # (K, ng, 8, G)
        return planes, planes[:, :, 0, :], index

    def _counters(self, sync: np.ndarray, column_ops: int, n: int,
                  c: int) -> MatmulCounters:
        """The cycle and fetch epilog of ``n`` contexts over a layer
        whose groups carry the ``(K, n_groups)`` sync counters ``sync``.
        """
        k, n_groups = sync.shape
        counter("sim.column_ops", n=column_ops)
        # Segment-level lockstep: kernels in blocks of 8 share the parser
        # schedule, so a segment context costs the max sync counter.
        segment_sync = np.pad(sync, ((0, (-k) % SEGMENT_KERNELS), (0, 0)))
        segment_sync = segment_sync.reshape(
            -1, SEGMENT_KERNELS, n_groups).max(axis=1)
        parallel_streams = max(self.ku // SEGMENT_KERNELS, 1)
        context_repeats = -(-n // self.oxu)
        compute_cycles = (-(-int(segment_sync.sum()) // parallel_streams)
                          * context_repeats)
        # Each group's payload is its magnitude columns plus the sign
        # column when requested -- exactly the sync counter -- times G,
        # behind the group's index byte.
        weight_bits = int(sync.sum()) * self.group_size + 8 * k * n_groups
        fetch_cycles = self.fetcher.fetch_weight_columns(weight_bits)
        fetch_cycles += self.fetcher.fetch_activations(n * c)
        return MatmulCounters(
            compute_cycles=compute_cycles,
            fetch_cycles=fetch_cycles,
            column_ops=column_ops,
            weight_bits_fetched=weight_bits,
            dense_weight_bits=k * c * 8,
        )

    def matmul_counters(self, weights: np.ndarray,
                        contexts: int) -> MatmulCounters:
        """Counters of ``contexts`` output rows through ``weights``.

        ``weights`` is int8 ``(K, C)``.  Encodes the index bytes,
        decodes them through the ZCIP lookup tables and reduces the
        sync counters: no activations, planes, GEMM or energy.
        :meth:`run_fc` over ``contexts`` activation rows reports the
        same counters.
        """
        weights = as_int8(weights)
        k, c = weights.shape
        with trace("sim.encode", kernels=k, reduction=c):
            _, index = self._group_bytes(weights)
        with trace("sim.decode", entry="counters"):
            parsed = self.parser.parse_array(index)
        return self._counters(parsed.sync_counters,
                              int(parsed.magnitude_columns.sum()),
                              contexts, c)

    def _compute(
        self,
        acts: np.ndarray,
        planes: np.ndarray,
        signs: np.ndarray,
        index_bytes: np.ndarray,
    ) -> tuple[np.ndarray, int, np.ndarray]:
        """The datapath step of :meth:`run_fc`: LUT index decode plus
        one GEMM per streamed bit plane.

        ``acts`` is ``(N, n_groups, G)``, ``planes``/``signs`` and
        ``index_bytes`` come from :meth:`_encode_groups`.  Returns
        ``(outputs, column_ops, sync)`` with ``sync`` the
        ``(K, n_groups)`` per-group sync counters.
        """
        with trace("sim.decode", entry="datapath"):
            parsed = self.parser.parse_array(index_bytes)
        engine = BitPlaneEngine(self.group_size)
        outputs = engine.process_layer(
            acts, planes, signs, parsed.streamed_planes)
        return (outputs, int(parsed.magnitude_columns.sum()),
                parsed.sync_counters)

    def run_fc(self, weights: np.ndarray, activations: np.ndarray) -> LayerRun:
        """Fully-connected layer: ``out[n, k] = sum_c a[n, c] * w[k, c]``.

        ``weights`` is int8 ``(K, C)``; ``activations`` integer ``(N, C)``.
        """
        weights = as_int8(weights)
        activations = np.asarray(activations)
        if not np.issubdtype(activations.dtype, np.integer):
            raise TypeError("simulator activations must be integers")
        k, c = weights.shape
        n = activations.shape[0]
        if activations.shape[1] != c:
            raise ValueError(
                f"activation width {activations.shape[1]} != weight C {c}")

        g = self.group_size
        pad = (-c) % g
        acts = activations.astype(np.int64)
        if pad:
            acts = np.concatenate(
                [acts, np.zeros((n, pad), dtype=np.int64)], axis=1)
        acts = acts.reshape(n, -1, g)  # (N, ng, G)

        with trace("sim.encode", kernels=k, reduction=c):
            planes, signs, index_bytes = self._encode_groups(weights)

        with trace("sim.compute", kernels=k, contexts=n):
            outputs, column_ops, sync = self._compute(
                acts, planes, signs, index_bytes)
        counter("sim.kernel_dispatch")
        counters = self._counters(sync, column_ops, n, c)

        payload_bits = int(sync.sum()) * g

        # Energy epilog: price this run's counters with the spec's
        # technology.  Each streamed column engages the group's G lanes
        # once per output context (payload_bits == sync-counter total
        # times G); every tensor crosses DRAM/SRAM once at this level
        # (whole-network fusion rules live in repro.eval.lowering).
        with trace("sim.energy_epilog"):
            energy = price_matmul(
                self.tech,
                lane_cycles=float(payload_bits) * n,
                weight_stream_bytes=counters.weight_bits_fetched / 8.0,
                dram_act_in_elems=float(n * c),
                dram_act_out_elems=float(n * k),
                act_elems=float(n * c),
                out_elems=float(n * k),
                n_mac=float(n) * k * c,
            )
        return LayerRun(**asdict(counters), outputs=outputs, energy=energy)

    def run_conv(
        self,
        weights: np.ndarray,
        activations: np.ndarray,
        stride: int = 1,
        padding: int = 0,
    ) -> LayerRun:
        """Convolution via im2col onto the FC path.

        ``weights`` int8 ``(K, C, FY, FX)``; ``activations`` integer
        ``(B, C, H, W)``.  Outputs come back as ``(B, K, OH, OW)``.
        """
        weights = as_int8(weights)
        activations = np.asarray(activations)
        k, c, fy, fx = weights.shape
        b = activations.shape[0]
        if padding:
            activations = np.pad(
                activations,
                ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        _, _, h, w = activations.shape
        oh = (h - fy) // stride + 1
        ow = (w - fx) // stride + 1
        sb, sc, sh, sw = activations.strides
        view = np.lib.stride_tricks.as_strided(
            activations,
            shape=(b, c, fy, fx, oh, ow),
            strides=(sb, sc, sh, sw, sh * stride, sw * stride),
            writeable=False,
        )
        # Group axis = consecutive input channels of one kernel: order
        # the reduction as (fy, fx, c).
        cols = np.ascontiguousarray(
            view.transpose(0, 4, 5, 2, 3, 1)).reshape(
                b * oh * ow, fy * fx * c)
        w_mat = np.ascontiguousarray(
            weights.transpose(0, 2, 3, 1)).reshape(k, fy * fx * c)
        run = self.run_fc(w_mat, cols)
        outputs = run.outputs.reshape(b, oh, ow, k).transpose(0, 3, 1, 2)
        return replace(run, outputs=outputs)
