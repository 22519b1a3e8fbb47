"""Causal request tracing: trees, critical paths, energy, exemplars.

The tracer (``repro.trace``) emits flat span streams; this package
folds them back into the causal trees they came from and answers the
questions the paper's tables ask per *request* rather than per tier:

* :func:`build_forest` — group identified spans into per-connection /
  per-job trees (:class:`SpanForest` of :class:`SpanNode`).
* :func:`critical_path` — partition a tree root's wall time into
  working ("self") and waiting ("blocked") segments;
  :func:`decomposition_from_critical_paths` re-derives the Table 7
  delay decomposition from tree structure alone.
* :func:`attribute_energy` — integrate the power meter's per-node
  trace over each span, splitting marginal watts across resident
  spans so joules conserve per node.
* :class:`ExemplarStore` — deterministic worst-per-bucket trace links
  for telemetry latency histograms.
* :mod:`~repro.causality.flame` — collapsed stacks and self-contained
  HTML flame graphs, in wall time or attributed energy.

Everything here is pure post-processing over a
:class:`~repro.trace.TraceLog` (live or re-read from JSONL/CSV): it
runs zero code inside the simulation and cannot perturb it.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    "..trace.context": ("SpanContext",),
    ".critical": ("CriticalPath", "Segment", "critical_path",
                  "decomposition_from_critical_paths", "self_times"),
    ".energy": ("EnergyAttribution", "NodeEnergy", "attribute_energy",
                "node_power_samples"),
    ".exemplars": ("Exemplar", "ExemplarStore"),
    ".flame": ("collapse", "energy_stacks", "latency_stacks", "render_html",
               "write_collapsed", "write_flame_html"),
    ".forest": ("SpanForest", "SpanNode", "build_forest"),
})
