"""BitWave Compute Engine (paper Fig. 8).

A BCE multiplies one bit-column of grouped weights with the group's
activations each cycle, following the five steps of Fig. 8:

1. *Input loading* -- G activations, a Gx1b weight column, sign bits;
2. *SMM* -- per-lane 1b x 8b sign-magnitude multiplication;
3. *Partial sum accumulation* -- adder tree over the column's lanes;
4. *Single shift* -- one shift for the whole column (the
   "add-then-shift" structure that beats per-lane shifters);
5. *Output generation* -- accumulate into the local output register.

The BCE holds activations and signs in registers across the non-zero
columns of the same weight group; only the weight bits change per cycle.
:class:`BitPlaneEngine` computes what the whole array of BCEs computes,
one shared-significance bit plane at a time.
"""

from __future__ import annotations

import numpy as np

from repro import faults
from repro.core.signmag import MAGNITUDE_PLANES, PLANE_SIGNIFICANCE
from repro.obs import trace
from repro.sim.smm import smm_plane_gemm


class BitPlaneEngine:
    """Plane-level batch view of the whole BCE array.

    Where one BCE streams one bit column of one weight group per
    cycle, the plane engine multiplies *every* group of *every* kernel
    against one shared-significance bit plane in a single GEMM
    (:func:`repro.sim.smm.smm_plane_gemm`) and applies the plane's
    single shift to the whole partial-sum matrix.  Zero columns carry
    all-zero plane bits and contribute nothing to the GEMM, so the
    accumulated outputs are bit-identical to streaming the columns one
    by one (int64 addition is exact and order-independent); the cycle
    accounting lives in the ZCIP lookup tables instead.
    """

    def __init__(self, group_size: int = 8) -> None:
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        self.group_size = group_size

    def process_layer(
        self,
        activations: np.ndarray,
        planes: np.ndarray,
        signs: np.ndarray,
        streamed_planes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run the whole layer, one GEMM per streamed magnitude plane.

        Parameters
        ----------
        activations:
            ``(N, n_groups, G)`` integer activation contexts.
        planes:
            ``(K, n_groups, 8, G)`` sign-magnitude bit planes (plane 0 is
            the sign plane).
        signs:
            ``(K, n_groups, G)`` sign bits of the grouped weights.
        streamed_planes:
            Optional ``(8,)`` mask of planes the parser schedules; dense
            mode truncates high significances away.  ``None`` streams
            every magnitude plane (sparse mode: unselected planes are
            all-zero and contribute nothing anyway).

        Returns
        -------
        numpy.ndarray
            ``(N, K)`` int64 partial sums.
        """
        activations = np.asarray(activations, dtype=np.int64)
        if activations.shape[-1] != self.group_size:
            raise ValueError(
                f"expected {self.group_size} activations, got "
                f"{activations.shape[-1]}")
        n, k = activations.shape[0], planes.shape[0]
        outputs = np.zeros((n, k), dtype=np.int64)
        for plane in MAGNITUDE_PLANES:
            if streamed_planes is not None and not streamed_planes[plane]:
                continue
            bits = planes[:, :, plane, :]
            if not bits.any():
                continue  # empty plane: no column anywhere streams it
            # One span per dispatched plane GEMM: both the dispatch
            # count and where the datapath's wall-clock goes.  The
            # fault hook lets chaos tests stall or kill a worker
            # *mid*-evaluation -- deep inside the datapath, where a
            # real OOM or freeze actually lands -- rather than only at
            # the tidy evaluation boundary.
            faults.fire("gemm")
            with trace("sim.plane_gemm", plane=int(plane)):
                outputs += smm_plane_gemm(activations, bits, signs) \
                    << np.int64(PLANE_SIGNIFICANCE[plane])
        return outputs
