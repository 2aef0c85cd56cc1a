"""Simulation state of the SIMCoV model.

The state is a set of flat per-cell arrays (float64 so they can live in the
simulated GPU's unified memory arena): epithelial state, state timer,
virion concentration, inflammatory-signal (chemokine) concentration, T-cell
occupancy and T-cell remaining lifespan, plus double buffers for the
diffusion and movement kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .params import APOPTOTIC, DEAD, EXPRESSING, HEALTHY, INCUBATING, SimCovParams


@dataclass
class SimCovState:
    """All per-cell arrays of one simulation instance."""

    params: SimCovParams
    epithelial: np.ndarray
    timer: np.ndarray
    virions: np.ndarray
    virions_next: np.ndarray
    chemokine: np.ndarray
    chemokine_next: np.ndarray
    tcells: np.ndarray
    tcells_next: np.ndarray
    tcell_life: np.ndarray
    step: int = 0

    @classmethod
    def initial(cls, params: SimCovParams) -> "SimCovState":
        """Fresh state: healthy epithelium everywhere, virions at the infection sites."""
        cells = params.cells
        state = cls(
            params=params,
            epithelial=np.full(cells, HEALTHY, dtype=np.float64),
            timer=np.zeros(cells, dtype=np.float64),
            virions=np.zeros(cells, dtype=np.float64),
            virions_next=np.zeros(cells, dtype=np.float64),
            chemokine=np.zeros(cells, dtype=np.float64),
            chemokine_next=np.zeros(cells, dtype=np.float64),
            tcells=np.zeros(cells, dtype=np.float64),
            tcells_next=np.zeros(cells, dtype=np.float64),
            tcell_life=np.zeros(cells, dtype=np.float64),
        )
        for cell in params.infection_cells():
            state.virions[cell] = params.initial_virions
        return state

    # -- views ---------------------------------------------------------------------
    def grid(self, name: str) -> np.ndarray:
        """A (height, width) view of one field, for plotting or inspection."""
        array = getattr(self, name)
        return array.reshape(self.params.height, self.params.width)

    def copy(self) -> "SimCovState":
        return SimCovState(
            params=self.params,
            epithelial=self.epithelial.copy(),
            timer=self.timer.copy(),
            virions=self.virions.copy(),
            virions_next=self.virions_next.copy(),
            chemokine=self.chemokine.copy(),
            chemokine_next=self.chemokine_next.copy(),
            tcells=self.tcells.copy(),
            tcells_next=self.tcells_next.copy(),
            tcell_life=self.tcell_life.copy(),
            step=self.step,
        )

    # -- summary metrics -------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Aggregate observables, the quantities SIMCoV reports per time step."""
        epithelial = self.epithelial
        return {
            "step": float(self.step),
            "total_virions": float(self.virions.sum()),
            "total_chemokine": float(self.chemokine.sum()),
            "num_tcells": float(self.tcells.sum()),
            "healthy": float(np.count_nonzero(epithelial == HEALTHY)),
            "incubating": float(np.count_nonzero(epithelial == INCUBATING)),
            "expressing": float(np.count_nonzero(epithelial == EXPRESSING)),
            "apoptotic": float(np.count_nonzero(epithelial == APOPTOTIC)),
            "dead": float(np.count_nonzero(epithelial == DEAD)),
        }

    def swap_diffusion_buffers(self) -> None:
        """Swap current/next buffers after the diffusion kernels of one step."""
        self.virions, self.virions_next = self.virions_next, self.virions
        self.chemokine, self.chemokine_next = self.chemokine_next, self.chemokine

    def swap_tcell_buffers(self) -> None:
        self.tcells, self.tcells_next = self.tcells_next, self.tcells
