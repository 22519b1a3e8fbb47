#!/usr/bin/env python
"""Design-space exploration: what would a *better* micro server need?

The library's hardware profiles are plain dataclasses, so hypothetical
platforms are one constructor away.  This script builds three Edison
variants the paper's discussion hints at —

* ``edison``            the real node (USB NIC, 0.5 GHz Atom)
* ``edison-inic``       integrated 0.1 W Ethernet (the paper's FAWN
                        comparison: the adapter burns ~74 % of idle)
* ``edison-2x``         a doubled-clock, doubled-DMIPS sensor node at
                        +0.25 W busy power

— and reruns the wordcount and pi energy comparison against the Dell
baseline for each.

Run:  python examples/design_your_own_micro_server.py
"""

from dataclasses import replace

from repro import EDISON, EDISON_INTEGRATED_NIC, JOB_FACTORIES, run_job
from repro.core.report import format_table
from repro.hardware import CpuSpec, PowerSpec

EDISON_2X = replace(
    EDISON_INTEGRATED_NIC,
    cpu=CpuSpec(cores=2, threads_per_core=1,
                dmips_per_thread=2 * EDISON.cpu.dmips_per_thread),
    power=PowerSpec(
        idle_w=EDISON.power.idle_w,
        busy_w=EDISON.power.busy_w + 0.25,
        adapter_w=0.1,
    ),
)

VARIANTS = (
    ("edison", EDISON),
    ("edison-inic", EDISON_INTEGRATED_NIC),
    ("edison-2x", EDISON_2X),
)


def main() -> None:
    baselines = {}
    for job in ("wordcount", "pi"):
        spec, config = JOB_FACTORIES[job]("dell", 2)
        baselines[job] = run_job("dell", 2, spec, config=config)
    rows = []
    for job in ("wordcount", "pi"):
        for label, hardware in VARIANTS:
            spec, config = JOB_FACTORIES[job]("edison", 35)
            report = run_job("edison", 35, spec, config=config,
                             edison_spec=hardware)
            gain = baselines[job].joules / report.joules
            rows.append((job, label, f"{report.seconds:.0f}",
                         f"{report.joules:.0f}", f"{gain:.2f}x"))
        rows.append((job, "dell-2 (baseline)",
                     f"{baselines[job].seconds:.0f}",
                     f"{baselines[job].joules:.0f}", "1.00x"))
    print(format_table(
        ("job", "node design", "time s", "energy J", "WDPJ vs Dell"),
        rows,
        title="What a better sensor-class node would buy "
              "(35 nodes vs 2 Dell R620)"))
    print()
    print("Takeaways: dropping the USB adapter (~1 W of a 1.7 W node) "
          "multiplies the efficiency gain;\na 2x-clock Atom would even "
          "flip the pi result while barely moving the power budget.")


if __name__ == "__main__":
    main()
