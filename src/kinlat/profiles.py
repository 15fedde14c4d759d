"""Named spectrum profiles over torus wavenumbers.

Every profile is a callable taking a coordinate mesh of shape
``(m,)*d + (d,)`` (entries in [0, 1) per axis, or equivalently rescaled
lattice wavenumbers mod 1) and returning nonnegative values of shape
``(m,)*d``.  The same callable therefore seeds either a wave ensemble or a
kinetic-equation initial spectrum.  ``make_profile`` is the string-keyed
factory the run configuration goes through.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigError
from .lattice import dispersion

__all__ = [
    "constant_profile",
    "torus_gaussian",
    "omega_bump",
    "rayleigh_jeans_profile",
    "make_profile",
    "PROFILE_NAMES",
]

Profile = Callable[[np.ndarray], np.ndarray]


def _require(ok: bool, name: str, value: float, rule: str) -> None:
    # callers pass the condition that must hold, so NaN fails it too
    if not ok:
        raise ConfigError(f"must be {rule}, got {value}", field=name)


def constant_profile(level: float) -> Profile:
    _require(level >= 0.0, "level", level, ">= 0")

    def profile(kappa: np.ndarray) -> np.ndarray:
        return np.full(kappa.shape[:-1], float(level))

    return profile


def torus_gaussian(amplitude: float, width: float) -> Profile:
    """Smooth periodic bump at the origin: ``A exp(-sum sin^2(pi k)/w^2)``."""
    _require(amplitude >= 0.0, "amplitude", amplitude, ">= 0")
    _require(width > 0.0, "width", width, "> 0")

    def profile(kappa: np.ndarray) -> np.ndarray:
        s = np.sum(np.sin(np.pi * kappa) ** 2, axis=-1)
        return amplitude * np.exp(-s / width**2)

    return profile


def omega_bump(amplitude: float, center: float, width: float) -> Profile:
    """Gaussian ridge in the dispersion value, ``A exp(-(w(k)-c)^2/2s^2)``."""
    _require(amplitude >= 0.0, "amplitude", amplitude, ">= 0")
    _require(width > 0.0, "width", width, "> 0")

    def profile(kappa: np.ndarray) -> np.ndarray:
        u = (dispersion(kappa) - center) / width
        return amplitude * np.exp(-0.5 * u * u)

    return profile


def rayleigh_jeans_profile(temperature: float, floor: float = 1e-12) -> Profile:
    """Equilibrium shape ``T/w(k)``, zeroed where the dispersion sits below ``floor``."""
    _require(temperature >= 0.0, "temperature", temperature, ">= 0")
    _require(floor > 0.0, "floor", floor, "> 0")

    def profile(kappa: np.ndarray) -> np.ndarray:
        w = dispersion(kappa)
        safe = np.where(w >= floor, w, 1.0)
        return np.where(w >= floor, temperature / safe, 0.0)

    return profile


# name -> (factory, required parameters, optional parameters)
_FACTORIES = {
    "constant": (constant_profile, ("level",), ()),
    "torus-gaussian": (torus_gaussian, ("amplitude", "width"), ()),
    "omega-bump": (omega_bump, ("amplitude", "center", "width"), ()),
    "rayleigh-jeans": (rayleigh_jeans_profile, ("temperature",), ("floor",)),
}

PROFILE_NAMES = tuple(sorted(_FACTORIES))


def make_profile(name: str, **params: float) -> Profile:
    """Build a profile by name; unknown names or parameters are config errors."""
    if name not in _FACTORIES:
        raise ConfigError(
            f"unknown profile {name!r}, expected one of {PROFILE_NAMES}", field="profile"
        )
    fn, required, optional = _FACTORIES[name]
    extra = set(params) - set(required) - set(optional)
    if extra:
        raise ConfigError(
            f"profile {name!r} does not take {sorted(extra)}", field="profile"
        )
    missing = [p for p in required if p not in params]
    if missing:
        raise ConfigError(
            f"profile {name!r} needs {missing}", field="profile"
        )
    return fn(**params)
