"""A real :class:`RunSupervisor` whose cells are answered, not
simulated: the sweep drives it like any other (``start``, a
:class:`Dispatch`, ``close``), and no cell pays for a simulation."""

from repro.harness.supervisor import CellResult, RunSupervisor


class CannedRunSupervisor(RunSupervisor):
    """Inline, and each cell's verdict is :meth:`verdict`'s, taken
    without an attempt."""

    def __init__(self) -> None:
        super().__init__(isolation="inline")

    def verdict(self, spec) -> CellResult:
        raise NotImplementedError

    def _cell(self, spec):
        return [self.verdict(spec)]
        yield  # a policy that makes no attempt
