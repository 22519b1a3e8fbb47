"""DVFS: P-state governors and the energy-proportionality scorecard.

The paper measures both platforms at nominal frequency; its Table 3
power models show why that leaves energy on the table — a mostly-idle
server still burns its full busy-power slope on every request.  This
package adds the knob real kernels turn: discrete P-states on every
CPU (:class:`~repro.hardware.PState`, declared per platform in the
hardware profiles), three cpufreq-style governors (``performance``,
``powersave``, ``ondemand``) actuated by a :class:`DvfsPlane` that
reads node utilisation from the telemetry TSDB, and an
energy-proportionality scorecard that ladders a deployment from 10 %
to 100 % load to report dynamic range, proportionality gap and work
per joule.

Everything is strictly opt-in.  With no :class:`DvfsConfig` (``None``,
the default) no plane, governor or extra process exists and every run
is bit-identical to a build without this package — the same hard
guarantee `repro.trace`, `repro.telemetry`, `repro.faults`,
`repro.resilience`, `repro.autoscale` and `repro.carbon` make.  A
:class:`DvfsConfig` names the governor, the one choice the committed
sweep varies; the ondemand tick, window and thresholds are constants
beside the code that reads them.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".governor": ("GOVERNOR_KINDS", "DvfsConfig", "OndemandGovernor",
                  "PerformanceGovernor", "PowersaveGovernor",
                  "make_governor"),
    ".plane": ("DvfsPlane", "attach_web"),
    ".scorecard": ("DVFS_SEED", "LOAD_FRACTIONS", "LoadPoint",
                   "ProportionalityScorecard", "measure_proportionality"),
    ".report": ("DvfsArm", "DvfsPlan", "DvfsReport", "dvfs_experiment"),
})
