"""Cycle-approximate simulator of the BitWave datapath (Section IV).

The simulator executes real BCS-compressed weight streams through
structural models of the paper's blocks -- the Zero-Column Index Parser
(Fig. 7), the sign-magnitude bit-serial multiplier and BCE pipeline
(Fig. 8), banked SRAM, and the fetcher/dispatcher pair -- producing
bit-exact outputs (checked against NumPy matmuls/convolutions in the
tests) *and* cycle counts.  The analytical model of
:mod:`repro.accelerators` is validated against these cycle counts the
same way the paper validates its model against RTL (<6% deviation,
Section V-B).
"""

from repro.sim.bce import BitColumnEngine, BitPlaneEngine
from repro.sim.memory import DramStream, SramBank
from repro.sim.npu import BACKENDS, BitWaveNPU, LayerRun, MatmulCounters
from repro.sim.zcip import ParsedIndex, ParsedIndexArray, ZeroColumnIndexParser

__all__ = [
    "BACKENDS",
    "BitColumnEngine",
    "BitPlaneEngine",
    "BitWaveNPU",
    "DramStream",
    "LayerRun",
    "MatmulCounters",
    "ParsedIndex",
    "ParsedIndexArray",
    "SramBank",
    "ZeroColumnIndexParser",
]
