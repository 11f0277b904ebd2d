"""Numerical laboratory for stable self-similar blow-up of the radial
focusing wave equation psi_tt - Delta psi = |psi|^(p-1) psi, 1 < p <= 3.

The package evolves perturbations of the space-homogeneous blow-up
solution in similarity coordinates, analyzes the linearized generator's
spectrum through a hypergeometric quantization condition, isolates the
time-translation instability with a Riesz projection, and tunes the
blow-up time so perturbed data decay at the predicted rate.  Names are
imported from their submodules; the package root re-exports none.
"""
