"""Package surface: each module's ``__all__`` is the one list of its public names."""

import importlib
import inspect
import pkgutil

import pytest

import kinlat

MODULES = sorted(m.name for m in pkgutil.iter_modules(kinlat.__path__))


def test_package_exports_only_the_version():
    public = {n for n in vars(kinlat) if not n.startswith("_")} - set(MODULES)
    assert public == set()
    assert isinstance(kinlat.__version__, str)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_matches_module(name):
    mod = importlib.import_module(f"kinlat.{name}")
    listed = mod.__all__
    assert len(set(listed)) == len(listed), "duplicate entries"
    assert [n for n in listed if not hasattr(mod, n)] == []
    defined = set()
    for n, obj in vars(mod).items():
        obj = inspect.unwrap(obj) if callable(obj) else obj  # see through lru_cache
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not n.startswith("_") and obj.__module__ == mod.__name__:
                defined.add(n)
    assert sorted(defined - set(listed)) == []
