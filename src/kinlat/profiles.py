"""Named spectrum profiles over torus wavenumbers.

Every profile is a callable taking a coordinate mesh of shape
``(m,)*d + (d,)`` (entries in [0, 1) per axis, or equivalently rescaled
lattice wavenumbers mod 1) and returning nonnegative values of shape
``(m,)*d``.  The same callable therefore seeds either a wave ensemble or a
kinetic-equation initial spectrum.  :data:`FACTORIES` maps each name to
its factory, whose keyword parameters are the one declaration of the
profile's parameters and defaults; the run configuration reads them there.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import require
from .lattice import dispersion

__all__ = [
    "constant_profile",
    "torus_gaussian",
    "omega_bump",
    "rayleigh_jeans_profile",
    "FACTORIES",
]

Profile = Callable[[np.ndarray], np.ndarray]


def constant_profile(level: float) -> Profile:
    require(level >= 0.0, "level", level, ">= 0")

    def profile(kappa: np.ndarray) -> np.ndarray:
        return np.full(kappa.shape[:-1], float(level))

    return profile


def torus_gaussian(amplitude: float, width: float) -> Profile:
    """Smooth periodic bump at the origin: ``A exp(-sum sin^2(pi k)/w^2)``."""
    require(amplitude >= 0.0, "amplitude", amplitude, ">= 0")
    require(width > 0.0, "width", width, "> 0")

    def profile(kappa: np.ndarray) -> np.ndarray:
        s = np.sum(np.sin(np.pi * kappa) ** 2, axis=-1)
        return amplitude * np.exp(-s / width**2)

    return profile


def omega_bump(amplitude: float, center: float, width: float) -> Profile:
    """Gaussian ridge in the dispersion value, ``A exp(-(w(k)-c)^2/2s^2)``."""
    require(amplitude >= 0.0, "amplitude", amplitude, ">= 0")
    require(width > 0.0, "width", width, "> 0")

    def profile(kappa: np.ndarray) -> np.ndarray:
        u = (dispersion(kappa) - center) / width
        return amplitude * np.exp(-0.5 * u * u)

    return profile


def rayleigh_jeans_profile(temperature: float, floor: float = 1e-12) -> Profile:
    """Equilibrium shape ``T/w(k)``, zeroed where the dispersion sits below ``floor``."""
    require(temperature >= 0.0, "temperature", temperature, ">= 0")
    require(floor > 0.0, "floor", floor, "> 0")

    def profile(kappa: np.ndarray) -> np.ndarray:
        w = dispersion(kappa)
        safe = np.where(w >= floor, w, 1.0)
        return np.where(w >= floor, temperature / safe, 0.0)

    return profile


# name -> factory; its keyword parameters are the profile's parameters
FACTORIES = {
    "constant": constant_profile,
    "omega-bump": omega_bump,
    "rayleigh-jeans": rayleigh_jeans_profile,
    "torus-gaussian": torus_gaussian,
}

