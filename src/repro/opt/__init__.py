"""Guided design-space search over the cached evaluation grid.

Campaigns (:mod:`repro.dse`) enumerate full cross-product grids; this
package drives :mod:`repro.eval` as an *objective function* instead, so
a search touches only the points it needs -- while recording every
probe into the same fingerprint-namespaced result store, so guided and
exhaustive runs share one cache (a guided run after an exhaustive one
performs zero new evaluations, and vice versa).

Three drivers:

- :func:`successive_halving` -- sample a :class:`repro.dse.CampaignSpec`
  space, rank by a named metric, promote the top half each round until
  one survivor set remains, and report the Pareto front of everything
  probed (every probe uses an exhaustive campaign's cache key);
- :func:`bound_expanding_search` -- scalar search (tolerance, max
  tries, auto-widening bounds, failure-tolerant probes) in the
  objective-callback style of OpenNVRAM's characterizer, with
  :func:`tune_arch_field` adapting it to a single arch-override axis;
- :func:`cosearch` -- the accuracy x hardware co-search: the paper's
  greedy Bit-Flip strategy search (:mod:`repro.core.search`) supplies
  accuracy-side candidates, the eval backends price them in
  cycles/energy, and a nondominated archive over ``{strategy x arch}``
  emits an accuracy-vs-TOPS/W frontier.

Every probe goes through :class:`Objective`, which stamps records with
``origin``/``round`` provenance, counts cache hits vs fresh
evaluations (``opt.probes.*`` counters), and computes misses through
the campaign's evaluation engine (:mod:`repro.dse.engine`), which
retries transient failures under a :class:`repro.dse.retry.RetryPolicy`
-- including faults injected at the ``opt`` site by ``--inject``
plans -- and enforces its timeout.
Seeds thread end-to-end: the same seed replays the identical probe
trajectory.
"""

from repro.opt.cosearch import CosearchConfig, CosearchResult, cosearch
from repro.opt.halving import (
    HalvingConfig,
    HalvingResult,
    smoke_space,
    successive_halving,
)
from repro.opt.objective import Objective, Probe
from repro.opt.scalar import (
    ScalarSearchResult,
    bound_expanding_search,
    tune_arch_field,
)

__all__ = [
    "CosearchConfig",
    "CosearchResult",
    "HalvingConfig",
    "HalvingResult",
    "Objective",
    "Probe",
    "ScalarSearchResult",
    "bound_expanding_search",
    "cosearch",
    "smoke_space",
    "successive_halving",
    "tune_arch_field",
]
