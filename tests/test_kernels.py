"""Chain force kernel: the circulant evaluation must match the dense sum."""

import numpy as np
import pytest

from kinlat.kernels import chain_force_flat


def test_chain_force_circulant_matches_direct(rng):
    r = rng.normal(size=(5, 32))
    direct = chain_force_flat(r, 1, 32, 0.4, method="direct")
    fft = chain_force_flat(r, 1, 32, 0.4, method="circulant")
    assert np.max(np.abs(direct - fft)) < 1e-11
    with pytest.raises(ValueError):
        chain_force_flat(r, 1, 32, 0.4, method="spectral")
