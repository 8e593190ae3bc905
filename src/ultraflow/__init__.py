"""Numerical laboratory for interval interpolation functionals, their heat
and nonlinear-diffusion flows, the monotonicity counter-examples, and the
constrained improvements of the optimal constants."""

__version__ = "0.1.0"
