"""kinlat.rng's normals and streams against numpy's Generator, bit for bit."""

import ast
import collections
import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from kinlat import _reference as ref
from kinlat import _ziggurat, rng

# seeds of one to four 32-bit entropy words, as for the uniforms
STREAM_SEEDS = [0, 2**32 - 1, 2**64 + 5, 2**100]


def _bits(a) -> np.ndarray:
    """The float64 words of ``a`` as integers, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _numpy_normals(seed, replica, shape):
    return np.random.default_rng(np.random.SeedSequence([seed, replica])).standard_normal(shape)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("shape", [(1,), (7,), (2, 33), (3001,)])
def test_normals_are_numpys_stream_bit_for_bit(seed, shape):
    replicas = [0, 1, 2**16, 2**32 - 1]
    got = rng.normals(seed, replicas, shape)
    assert got.shape == (len(replicas),) + shape
    for row, i in zip(got, replicas):
        assert np.array_equal(_bits(row), _bits(_numpy_normals(seed, i, shape))), (seed, i)


def test_normals_hold_both_slow_paths_bit_for_bit():
    # the meanfield sample's streams: seed 0, 64 replicas of 2 x 512 normals
    got = rng.normals(0, range(64), (2, 512))
    paths = collections.Counter()
    for i in range(64):
        assert np.array_equal(_bits(got[i]), _bits(_numpy_normals(0, i, (2, 512)))), i
        attempts = ref.ziggurat_attempts_loop(0, i)
        made = 0
        while made < 1024:
            path, x = next(attempts)
            paths[path] += 1
            made += x is not None
    # 973 of 65,983 attempts leave the accept test
    assert paths == {"fast": 65010, "wedge": 511, "wedge-rejected": 447, "tail": 15}


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_normals_match_the_literal_loop(seed):
    replicas = [0, 2**16 + 3]
    got = rng.normals(seed, replicas, (4, 100)).reshape(len(replicas), -1)
    for row, i in zip(got, replicas):
        assert np.array_equal(_bits(row), _bits(ref.ziggurat_normals_loop(seed, i, 400))), (seed, i)


def test_a_block_that_runs_out_of_draws_is_drawn_again(monkeypatch):
    # no spare draws: every row with a slow path runs out at least once
    want = rng.normals(3, range(8), (2, 300))
    monkeypatch.setattr(rng, "_with_spare", lambda n: n)
    got = rng.normals(3, range(8), (2, 300))
    assert np.array_equal(_bits(got), _bits(want))


def test_normals_do_not_depend_on_the_block_size(monkeypatch):
    replicas = np.arange(5, 12)
    want = rng.normals(9, replicas, (3, 50))
    for block in (1, 150, 400, 1000):
        monkeypatch.setattr(rng, "BLOCK", block)
        assert np.array_equal(_bits(rng.normals(9, replicas, (3, 50))), _bits(want)), block


def test_an_empty_shape_draws_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a stream was seeded")

    monkeypatch.setattr(rng, "_starts", refuse)
    blocks = list(rng.normal_blocks(4, range(5), (0, 16)))
    assert len(blocks) == 1
    assert blocks[0][0] == slice(0, 5) and blocks[0][1].shape == (5, 0, 16)


def test_normals_refuse_what_has_no_stream():
    with pytest.raises(ValueError, match="seed"):
        rng.normals(-1, [0], (3,))
    with pytest.raises(ValueError, match="2\\*\\*32"):
        rng.normals(0, [2**32], (3,))


def test_a_stream_reads_numpys_generator_in_order():
    for seed in (0, 5, 2**64 + 5):
        ours = rng.Stream(seed, 0xFACE)
        theirs = np.random.default_rng(np.random.SeedSequence([seed, 0xFACE]))
        for t in range(30):
            shape = (1 + 7 * t % 23, 2) if t % 3 else (5,)
            draw = "random" if t % 2 else "standard_normal"
            got, want = getattr(ours, draw)(shape), getattr(theirs, draw)(shape)
            assert np.array_equal(_bits(got), _bits(want)), (seed, t, draw)


def test_the_tables_are_the_committed_bytes():
    assert len(_ziggurat.TABLES) == 770 * 8
    digest = hashlib.sha256(_ziggurat.TABLES).hexdigest()
    assert digest == "be2df104f9983119c6286df9d3e96a4e2755b4d7c96f0c6cd115b9bc38a59d42"
    assert _ziggurat.KI[0] == 0x000EF33D8025EF6A and _ziggurat.WI[0] == 8.68362706080130616677e-16
    assert _ziggurat.FI[0] == 1.0 and _ziggurat.R == 3.6541528853610088
    assert _ziggurat.INV_R == 0.27366123732975828


def test_the_jump_constants_step_the_lcg():
    x0, inc, m128 = 0x1234_5678_9ABC_DEF0_0FED_CBA9_8765_4321, 0xDEAD_BEEF_0000_0001, (1 << 128) - 1
    x = x0
    for j in range(40):
        a, b = rng._jump(j)
        assert (a * x0 + b * inc) & m128 == x, j
        x = (x * rng.PCG_MULT + inc) & m128


def _numpy_random_references(path: Path) -> list[str]:
    """Each ``np.random`` / ``numpy.random`` attribute or import in a module's code."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.Import):
            found += [f"{path.name}:{node.lineno}" for a in node.names if a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            if any(n.startswith("numpy.random") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_the_package_never_names_numpy_random(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nfrom numpy import random\ng = np.random.default_rng(0)\n")
    assert _numpy_random_references(probe) == ["probe.py:2", "probe.py:3"]
    src = Path(rng.__file__).parent
    found = list(itertools.chain.from_iterable(_numpy_random_references(p) for p in sorted(src.glob("*.py"))))
    assert found == []
