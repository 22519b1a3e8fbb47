"""Failure-injection tests: a node interrupt reaching a running task."""

from repro.sim import Interrupt, Simulation


def test_interrupting_a_simulated_process_mid_io():
    """The kernel's Interrupt reaches a process blocked on disk I/O."""
    from repro.hardware import EDISON, make_server
    sim = Simulation()
    server = make_server(sim, EDISON, "e0")
    outcomes = []

    def io_task():
        try:
            yield from server.storage.read(100e6)   # several seconds
            outcomes.append("finished")
        except Interrupt as interrupt:
            outcomes.append(f"killed:{interrupt.cause}")

    def killer(victim):
        yield sim.timeout(0.5)
        victim.interrupt(cause="node-power-loss")

    victim = sim.process(io_task())
    sim.process(killer(victim))
    sim.run()
    assert outcomes == ["killed:node-power-loss"]
