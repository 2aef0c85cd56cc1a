"""Parameters of the SIMCoV model.

The parameter names follow the description in Section II-C of the paper
(and Moses et al. 2021): epithelial cells transition healthy -> incubating
-> expressing -> apoptotic -> dead, virions and inflammatory signal
(chemokine) diffuse over the grid, and T cells extravasate from the
vasculature with a probability driven by the inflammatory signal and then
perform a random walk.

The default grid sizes are scaled down from the paper's 100x100 fitness
grid and 2500x2500 validation grid so the pure-Python GPU simulator can
run them; EXPERIMENTS.md records the scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

#: Epithelial cell states (Section II-C).
HEALTHY = 0
INCUBATING = 1
EXPRESSING = 2
APOPTOTIC = 3
DEAD = 4

STATE_NAMES = {
    HEALTHY: "healthy",
    INCUBATING: "incubating",
    EXPRESSING: "expressing",
    APOPTOTIC: "apoptotic",
    DEAD: "dead",
}


@dataclass(frozen=True)
class SimCovParams:
    """Configuration of one SIMCoV simulation."""

    width: int = 16
    height: int = 16
    steps: int = 6
    seed: int = 2021

    # -- virion / chemokine dynamics ------------------------------------------
    virion_diffusion: float = 0.15
    virion_decay: float = 0.05
    chemokine_diffusion: float = 0.2
    chemokine_decay: float = 0.1
    #: Diffusion sub-steps per simulation step (diffusion needs a finer time
    #: step than the agent updates for numerical stability; this is why the
    #: spread kernels dominate SIMCoV's runtime -- Section II-C).
    diffusion_substeps: int = 3
    virion_production: float = 1.1
    chemokine_production: float = 0.6
    infectivity_threshold: float = 0.5

    # -- epithelial state machine ----------------------------------------------
    incubation_period: int = 2
    apoptosis_period: int = 2

    # -- T cells -----------------------------------------------------------------
    extravasate_probability: float = 0.35
    chemokine_extravasate_threshold: float = 0.05
    tcell_lifespan: int = 12

    # -- initial infection sites (grid coordinates) -------------------------------
    initial_infections: Tuple[Tuple[int, int], ...] = ()
    initial_virions: float = 8.0

    def __post_init__(self):
        if self.width < 4 or self.height < 4:
            raise ValueError("SIMCoV grids must be at least 4x4")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not self.initial_infections:
            centre = (self.width // 2, self.height // 2)
            quarter = (self.width // 4, self.height // 4)
            object.__setattr__(self, "initial_infections", (centre, quarter))
        for x, y in self.initial_infections:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"infection site {(x, y)} outside the {self.width}x{self.height} grid")

    # -- helpers -------------------------------------------------------------------
    @property
    def cells(self) -> int:
        return self.width * self.height

    def infection_cells(self) -> List[int]:
        """Linear cell indices of the initial infection sites."""
        return [y * self.width + x for x, y in self.initial_infections]

    def with_(self, **changes) -> "SimCovParams":
        return replace(self, **changes)

    @classmethod
    def fitness(cls, seed: int = 2021) -> "SimCovParams":
        """The scaled stand-in for the paper's 100x100-grid, 2500-step fitness runs."""
        return cls(width=16, height=16, steps=6, seed=seed)

    @classmethod
    def validation(cls, seed: int = 2021) -> "SimCovParams":
        """The scaled stand-in for the larger held-out validation run.

        The width exceeds the device allocator's guard region, which is what
        exposes the out-of-bounds accesses of the boundary-check-removal
        variant (Section VI-D).
        """
        return cls(width=40, height=24, steps=6, seed=seed)

    @classmethod
    def quick(cls, seed: int = 2021) -> "SimCovParams":
        """A minimal configuration for unit tests."""
        return cls(width=8, height=8, steps=3, seed=seed)
