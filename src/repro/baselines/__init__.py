"""Non-evolutionary search baselines used for comparison/ablation experiments."""

from .hill_climber import HillClimbResult, HillClimber
from .random_search import RandomSearch

__all__ = ["HillClimbResult", "HillClimber", "RandomSearch"]
