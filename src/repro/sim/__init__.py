"""Cycle-approximate simulator of the BitWave datapath (Section IV).

The simulator runs real BCS index bytes through structural models of
the paper's blocks -- the Zero-Column Index Parser (Fig. 7), the
sign-magnitude bit-serial multiplier and BCE array (Fig. 8) and the
fetcher (Fig. 11) -- on one path with two entries:

- :meth:`BitWaveNPU.matmul_counters` counts a layer's cycles, fetches
  and column ops from its weights alone; whole-network evaluation and
  the Section V-B table (:mod:`repro.eval.lowering`) run on it, the
  latter validating the analytical model of :mod:`repro.accelerators`
  the way the paper validates its model against RTL (<6% deviation);
- :meth:`BitWaveNPU.run_fc` / :meth:`BitWaveNPU.run_conv` also compute
  bit-exact outputs, one GEMM per streamed bit plane, with the same
  counters.

The tests hold both to a column-serial reference datapath.
"""

from repro.sim.bce import BitPlaneEngine
from repro.sim.npu import BitWaveNPU, LayerRun, MatmulCounters
from repro.sim.zcip import ParsedIndexArray, ZeroColumnIndexParser

__all__ = [
    "BitPlaneEngine",
    "BitWaveNPU",
    "LayerRun",
    "MatmulCounters",
    "ParsedIndexArray",
    "ZeroColumnIndexParser",
]
