"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause.
The GPU simulator distinguishes *traps* (runtime faults inside a simulated
kernel, analogous to a CUDA fault or segmentation fault) from host-side
usage errors, because GEVO treats trapped kernel variants as "failed the
test case" rather than as programming errors in the harness itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class IRError(ReproError):
    """Base class for errors related to the mini-IR."""


class IRParseError(IRError):
    """Raised when the textual IR form cannot be parsed."""


class IRVerificationError(IRError):
    """Raised when a module fails structural verification."""


class EditError(ReproError):
    """Raised when a GEVO edit cannot be applied to a module.

    GEVO treats un-appliable edits as benign: the individual carrying them
    is simply invalid for this generation.  The error therefore carries the
    offending edit for diagnostics.
    """

    def __init__(self, message: str, edit=None):
        super().__init__(message)
        self.edit = edit


class SimulatorError(ReproError):
    """Base class for errors raised by the GPU simulator."""


class KernelTrap(SimulatorError):
    """A simulated kernel performed an illegal operation.

    Examples: out-of-bounds global/shared memory access, use of an
    undefined register, division by zero, exceeding the dynamic
    instruction budget (runaway loop).  Equivalent to a CUDA error /
    segfault on real hardware: the variant fails its test case.
    """

    def __init__(self, message: str, *, block=None, warp=None, instruction=None):
        super().__init__(message)
        self.block = block
        self.warp = warp
        self.instruction = instruction


class LaunchError(SimulatorError):
    """Raised for host-side launch misconfiguration (bad grid, missing args)."""


class ValidationError(ReproError):
    """Raised when workload output validation cannot be performed."""


class SearchError(ReproError):
    """Raised for configuration errors in the GEVO search driver."""


class ExecutorError(ReproError):
    """An evaluation batch failed inside an :class:`~repro.runtime.engine.Executor`.

    Raised when a worker raises or dies mid-batch (e.g. a worker process
    killed by the OOM killer, or an exception escaping an evaluation in a
    pool worker).
    The engine guarantees that a batch which raises leaves the fitness
    cache untouched -- no partial results are ever stored -- so callers
    can retry the batch or abort without corrupting persisted state.
    """
