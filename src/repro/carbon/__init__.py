"""Carbon- and price-aware scheduling of deferrable work.

The paper priced its clusters with the PDU as the only meter; this
package adds the grid's clock.  Carbon-intensity (gCO2/kWh) and
time-of-use tariff ($/kWh) signals become simulated-time traces; batch
MapReduce jobs gain release times and deadlines; and four policies —
no-wait, EDD, threshold-waiting, suspend-resume (parking the whole
fleet in the PR 6 admin power states mid-run) — are priced against
each other in grams of CO2, dollars, wait hours and deadline misses,
on both the Edison and R620 clusters.  A plan names its arms by policy
kind alone; the threshold percentile, the deadline guard, the
governor's tick and the platforms' boot times are constants beside the
code that reads them.

Everything is strictly opt-in.  The scheduler is a *front end*: jobs
submitted outside it never see a deferral queue, a governor or an
extra process, and the no-wait arm's runs are float-for-float
identical to plain ``run_job`` — the same hard off-path guarantee
`repro.trace`, `repro.telemetry`, `repro.faults`, `repro.resilience`
and `repro.autoscale` make.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, globals(), {
    ".governor": ("CarbonGovernor",),
    ".jobspec": ("CARBON_JOB_KINDS", "CarbonJobSpec"),
    ".ledger": ("CarbonLedger", "GovernorAction", "JobRecord", "grid_impact"),
    ".policy": ("POLICY_KINDS", "SAFETY", "THRESHOLD_PCT", "EddPolicy",
                "NoWaitPolicy", "SchedulingPolicy", "SuspendResumePolicy",
                "ThresholdWaitPolicy", "make_policy"),
    ".scheduler": ("CarbonScheduler", "run_policy_day"),
    ".trace": ("SignalTrace", "evening_peak_price", "solar_dip_intensity"),
    ".report": ("CarbonArm", "CarbonDayPlan", "CarbonReport", "DAY_SEED",
                "PLATFORMS", "carbon_experiment"),
})
