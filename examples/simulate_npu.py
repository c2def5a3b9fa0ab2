"""Drive the structural BitWave simulator on a small convolution.

Streams a real BCS-compressed weight tensor through the ZCIP -> BCE
datapath, checks the outputs bit-exactly against a reference
convolution, and reports cycles and compression against a dense-mode
run of the same layer -- the zero-column skipping benefit, measured on
the simulated hardware rather than the analytical model.

Run:  python examples/simulate_npu.py
"""

import numpy as np

from repro.arch import parse_arch
from repro.nn import functional as F
from repro.sim.npu import BitWaveNPU
from repro.utils.rng import seeded_rng


def main() -> None:
    rng = seeded_rng("simulate-npu")
    weights = np.clip(np.round(rng.laplace(0, 8, (16, 8, 3, 3))),
                      -127, 127).astype(np.int8)
    acts = rng.integers(-64, 64, (1, 8, 12, 12)).astype(np.int32)

    sparse_run = BitWaveNPU().run_conv(weights, acts, stride=1, padding=1)
    dense_run = BitWaveNPU(parse_arch("bitwave-16nm@columns=dense")).run_conv(
        weights, acts, stride=1, padding=1)

    reference = F.conv2d(acts.astype(np.float64), weights.astype(np.float64),
                         stride=1, padding=1).astype(np.int64)
    assert np.array_equal(sparse_run.outputs, reference), "bit-exact"
    assert np.array_equal(dense_run.outputs, reference), "bit-exact"

    print("outputs bit-exact against reference convolution: OK")
    print(f"dense-mode compute cycles:  {dense_run.compute_cycles}")
    print(f"column-skipping cycles:     {sparse_run.compute_cycles} "
          f"({dense_run.compute_cycles / sparse_run.compute_cycles:.2f}x "
          f"speedup)")
    print(f"weight stream compression:  "
          f"{sparse_run.compression_ratio:.2f}x vs dense storage")
    print(f"column operations executed: {sparse_run.column_ops}")


if __name__ == "__main__":
    main()
