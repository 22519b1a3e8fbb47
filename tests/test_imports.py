"""The import graph: lazy package exports and what each entry point loads.

Every check runs in a fresh interpreter, because ``sys.modules`` in the
test process already holds whatever earlier tests imported.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Modules neither off-path build may load: observability, the planes'
#: reports and controllers, the fault injector and the offline tools.
NEVER_ON_THE_OFF_PATH = (
    "repro.trace", "repro.telemetry", "repro.causality", "repro.dvfs",
    "repro.durability", "repro.autoscale", "repro.carbon",
    "repro.microbench", "repro.tco", "repro.faults", "repro.resilience",
    "repro.energy.account",
)


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return what it printed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _under(modules, prefixes):
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))


# -- the public API surface ----------------------------------------------------


def test_every_package_exports_resolve_and_are_listed():
    problems = _fresh("""
        import json
        import repro
        problems = []
        # Attribute access reaches a subpackage before anything imports it.
        if repro.web.WebServiceDeployment.__name__ != "WebServiceDeployment":
            problems.append("repro.web.WebServiceDeployment")

        import importlib, pkgutil
        packages = ["repro"] + sorted(
            m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
            if m.ispkg)
        for name in packages:
            package = importlib.import_module(name)
            listed = set(dir(package))
            for export in package.__all__:
                getattr(package, export)
                if export not in listed:
                    problems.append(f"{name}.{export} missing from dir()")
            namespace = {}
            exec(f"from {name} import *", namespace)
            missing = set(package.__all__) - set(namespace)
            if missing:
                problems.append(f"from {name} import * lacks {missing}")
            try:
                getattr(package, "no_such_export")
                problems.append(f"{name}.no_such_export resolved")
            except AttributeError as exc:
                if repr(name) not in str(exc):
                    problems.append(f"{name}: error names no package: {exc}")
            submodules = {m.name for m in pkgutil.iter_modules(
                package.__path__)}
            # The table itself must resolve such a name to the submodule:
            # importing the submodule would otherwise replace the export.
            for export in set(package.__all__) & submodules:
                module = importlib.import_module(f"{name}.{export}")
                if package.__getattr__(export) is not module:
                    problems.append(f"{name}.{export} is shadowed by "
                                    f"its submodule")
        print(json.dumps(problems))
    """)
    assert problems == []


def test_lazy_report_names_are_listed_by_dir():
    listed = _fresh("""
        import json
        import repro.autoscale, repro.carbon, repro.durability, repro.dvfs
        import repro.resilience
        print(json.dumps([
            "AutoscaleArm" in dir(repro.autoscale),
            "CarbonArm" in dir(repro.carbon),
            "DurabilityArm" in dir(repro.durability),
            "DvfsArm" in dir(repro.dvfs),
            "ResilienceArm" in dir(repro.resilience),
        ]))
    """)
    assert listed == [True] * 5


def test_job_names_match_the_factories():
    from repro.mapreduce import JOB_FACTORIES, TABLE8_JOBS
    from repro.mapreduce.jobs import JOB_NAMES

    assert tuple(JOB_FACTORIES) == JOB_NAMES
    assert set(TABLE8_JOBS) <= set(JOB_NAMES)


# -- what an off-path build loads ------------------------------------------------


_BUILD_AND_RUN = """
    import json, sys

    def loaded():
        return sorted(m for m in sys.modules if m.startswith("repro"))

    {build}
    built = loaded()
    {run}
    print(json.dumps({{"built": built, "new": sorted(set(loaded())
                                                      - set(built))}}))
"""


def test_web_build_loads_only_the_web_stack():
    modules = _fresh(_BUILD_AND_RUN.format(
        build="""
    from repro.web import WebServiceDeployment
    deployment = WebServiceDeployment("edison", "48x22")""",
        run="""
    deployment.run_level(48, duration=0.4, warmup=0.1)"""))
    built = modules["built"]
    assert _under(built, ("repro.mapreduce",)) == []
    assert _under(built, NEVER_ON_THE_OFF_PATH) == []
    assert len(built) <= 35, built
    assert modules["new"] == []


def test_mapreduce_build_loads_only_the_mapreduce_stack():
    modules = _fresh(_BUILD_AND_RUN.format(
        build="""
    from repro.mapreduce import JOB_FACTORIES, JobRunner
    spec, config = JOB_FACTORIES["terasort"]("edison", 4)
    runner = JobRunner("edison", 4, config=config)""",
        run="""
    runner.run(spec)"""))
    built = modules["built"]
    assert _under(built, ("repro.web",)) == []
    assert _under(built, NEVER_ON_THE_OFF_PATH) == []
    assert len(built) <= 34, built
    # The job catalogue holds every dataset; no workloads package remains.
    assert _under(built, ("repro.workloads",)) == []
    assert not os.path.exists(os.path.join(SRC, "repro", "workloads",
                                           "__init__.py"))
    assert modules["new"] == []


def test_cli_parser_loads_no_simulation_module():
    modules = _fresh("""
        import contextlib, io, json, sys
        from repro.cli import build_parser
        for argv in (["--help"], ["job", "--help"], ["web", "--help"],
                     ["claims", "--help"], ["dvfs", "--help"]):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    build_parser().parse_args(argv)
                except SystemExit:
                    pass
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("repro"))))
    """)
    assert modules == [
        "repro", "repro._exports", "repro.cli", "repro.core",
        "repro.core.report", "repro.mapreduce", "repro.mapreduce.jobs",
        "repro.mapreduce.jobs.names",
    ]
