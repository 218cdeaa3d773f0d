"""Experiment drivers regenerating every figure of Section VII and the
design ablations; ``python -m repro experiments`` prints them all."""

from repro.experiments import ablations, fig7, fig8, fig9
from repro.experiments.runner import run_all

__all__ = ["ablations", "fig7", "fig8", "fig9", "run_all"]
