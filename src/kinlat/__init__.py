"""Lattice wave dynamics vs. three-wave kinetics, and long-range chains
vs. their mean-field transport limit, under one deterministic harness.

The package splits into two validation pipelines sharing the same
conventions:

* short-range: :mod:`~kinlat.lattice` (geometry and transforms),
  :mod:`~kinlat.waves` (microscopic amplitude flow and random-phase
  ensembles), :mod:`~kinlat.kinetic` (the broadened collision operator);
* long-range: :mod:`~kinlat.chain` (fractional oscillator chains),
  :mod:`~kinlat.vlasov` (the phase-space transport solver).

:mod:`~kinlat.harness` runs configured pipelines reproducibly and
:mod:`~kinlat.cli` exposes them as the ``kinlat`` command.

The modules are the API, each declaring its public names in ``__all__``;
the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
