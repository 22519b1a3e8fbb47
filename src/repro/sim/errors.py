"""Exception types raised by the discrete-event simulation kernel."""


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulation.run` at an until-event.

    Carries the value of the event that terminated the run.
    """

    def __init__(self, value):
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The interrupting party may attach an arbitrary ``cause`` describing
    why the interruption happened (e.g. a node failure injected by a
    fault-injection test).
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause
