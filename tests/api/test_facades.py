"""The documented facades, :mod:`repro` and :mod:`repro.api`.

Both serve their ``__all__`` names lazily (PEP 562 ``__getattr__``), so
importing them loads nothing else.  Each name must still resolve to the
very object its home module defines.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.api

#: Where each exported name is defined.
HOMES = {
    "repro": {
        "ASPath": "repro.netbase.aspath",
        "DetectionSource": "repro.api.sources",
        "MoasService": "repro.api.service",
        "PeerId": "repro.netbase.rib",
        "Prefix": "repro.netbase.prefix",
        "RibSnapshot": "repro.netbase.rib",
        "Roa": "repro.netbase.rpki",
        "RoaTable": "repro.netbase.rpki",
        "Route": "repro.netbase.rib",
        "ValidationState": "repro.netbase.rpki",
        "render": "repro.api.renderers",
    },
    "repro.api": {
        "ArchiveSource": "repro.api.sources",
        "BackgroundServer": "repro.api.serve",
        "CHECKPOINT_VERSION": "repro.api.service",
        "DetectionSource": "repro.api.sources",
        "MemorySource": "repro.api.sources",
        "MoasService": "repro.api.service",
        "MrtFilesSource": "repro.api.sources",
        "NetworkSource": "repro.api.sources",
        "Renderer": "repro.api.renderers",
        "ServeConfig": "repro.api.serve",
        "ServeDaemon": "repro.api.serve",
        "available_renderings": "repro.api.renderers",
        "open_source": "repro.api.sources",
        "register_renderer": "repro.api.renderers",
        "register_source": "repro.api.sources",
        "render": "repro.api.renderers",
        "source_kinds": "repro.api.sources",
    },
}

EXPORTS = [
    (facade, name, home)
    for facade, homes in HOMES.items()
    for name, home in homes.items()
]


def fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter; returns its stdout."""
    env = dict(
        os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1])
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return result.stdout


@pytest.mark.parametrize("facade", sorted(HOMES))
def test_all_names_are_covered(facade):
    module = importlib.import_module(facade)
    assert set(module.__all__) - {"__version__"} == set(HOMES[facade])


@pytest.mark.parametrize(
    "facade,name,home", EXPORTS, ids=[f"{f}.{n}" for f, n, _h in EXPORTS]
)
def test_name_resolves_to_its_home_object(facade, name, home):
    module = importlib.import_module(facade)
    assert getattr(module, name) is getattr(importlib.import_module(home), name)


@pytest.mark.parametrize("facade", sorted(HOMES))
def test_star_import(facade):
    namespace: dict = {}
    exec(f"from {facade} import *", namespace)
    module = importlib.import_module(facade)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("facade", sorted(HOMES))
def test_unknown_attribute_raises(facade):
    module = importlib.import_module(facade)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")
    assert not hasattr(module, "no_such_name")


def test_facade_import_loads_nothing_else():
    loaded = fresh_interpreter(
        "import sys, repro.api\n"
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.startswith('repro'))))"
    ).split()
    assert loaded == ["repro", "repro.api"]


def test_submodule_import_through_facade():
    """``from repro.api import renderers`` still finds the submodule:
    the facade's ``__getattr__`` raises AttributeError for it, and the
    import system falls back to importing ``repro.api.renderers``."""
    out = fresh_interpreter(
        "from repro.api import renderers, render\n"
        "print(renderers.render is render)"
    )
    assert out.strip() == "True"


def test_internal_packages_export_nothing():
    """Internal package ``__init__``s hold only their docstring; names
    are imported from their home modules."""
    for package in ("analysis", "bgp", "core", "mrt", "netbase",
                    "scenario", "topology", "util"):
        module = importlib.import_module(f"repro.{package}")
        public = {
            name for name, value in vars(module).items()
            if not name.startswith("_")
            and not isinstance(value, type(repro))
        }
        assert public == set(), (package, public)
