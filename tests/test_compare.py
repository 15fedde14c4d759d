"""Ensemble-vs-limit distances: the one record, and a module that loads no lane."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kinlat.chain import ChainGeometry, GaussianLaw, sample_ensemble
from kinlat.compare import OBSERVABLES, Distance, compare_spectra, meanfield_distance
from kinlat.kinetic import TorusGrid
from kinlat.vlasov import PhaseGrid, cell_moments_of_density, density_from_law

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_lane():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = "import json, sys, kinlat.compare; print(json.dumps(sorted(sys.modules)))"
    res = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    loaded = set(json.loads(res.stdout))
    assert "kinlat.compare" in loaded
    assert loaded & {"kinlat.waves", "kinlat.kinetic", "kinlat.chain", "kinlat.vlasov"} == set()


@pytest.mark.parametrize("names", [("f",), tuple(OBSERVABLES)])
def test_a_constant_gap_has_every_norm_equal_to_it(names):
    c, n = 0.375, 16
    ours = {k: np.linspace(-1.0, 1.0, n) for k in names}
    theirs = {k: v + c for k, v in ours.items()}
    d = Distance(ours, theirs, 1.0 / n, 2.0, None)
    for k in names:
        assert np.allclose(d.gap[k], c)
        assert d.l1[k] == pytest.approx(c) and d.l2[k] == pytest.approx(c)
        assert d.sup[k] == pytest.approx(c)
    assert d.total_l2 == pytest.approx(c * math.sqrt(len(names)))
    assert d.total_sup == pytest.approx(c)
    assert d.to_dict() == {
        "t": 2.0,
        "total_l2": d.total_l2,
        "total_sup": d.total_sup,
        "sup": d.sup,
        "l2": d.l2,
    }


def test_both_comparisons_return_the_one_record():
    grid = TorusGrid(1, 8)
    spectra = compare_spectra(np.ones(8), grid, np.full(8, 1.5), grid, 0.5)
    assert isinstance(spectra, Distance)
    assert set(spectra.l2) == {"f"} and spectra.t == 0.5 and spectra.grid == grid
    law = GaussianLaw(0.0, 0.0, 0.15, 0.15)
    geom = ChainGeometry(1, 16)
    pg = PhaseGrid(4, 16, 16, 1.0, 1.0)
    g = density_from_law(law, pg)
    ens = sample_ensemble(law, geom, 4, 1)
    moments = meanfield_distance(cell_moments_of_density(g, pg), pg, 0.0, *ens, geom, 0.0)
    assert isinstance(moments, Distance)
    assert list(moments.l2) == list(OBSERVABLES)
