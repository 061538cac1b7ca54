"""repro — reproduction of Zhao et al., *An Analysis of BGP Multiple
Origin AS (MOAS) Conflicts* (IMC 2001).

The package layers as follows (lowest first):

- :mod:`repro.netbase` — IPv4 prefixes, AS numbers, AS paths, radix trie,
  RIB snapshots.
- :mod:`repro.mrt` — MRT archive codec (TABLE_DUMP / TABLE_DUMP_V2 /
  BGP4MP), our substitute for mrtparse.
- :mod:`repro.bgp` — a policy-aware BGP route-propagation engine
  (Gao-Rexford relationships, per-router decision process).
- :mod:`repro.topology` — Internet-like AS topology and address-space
  generation for the 1997-2001 study window.
- :mod:`repro.scenario` — the measurement world: MOAS cause processes,
  the simulated Route Views collector and the daily snapshot archive.
- :mod:`repro.core` — the paper's contribution: MOAS detection,
  classification, episode/duration tracking, statistics and cause
  attribution, plus a streaming real-time alerter.
- :mod:`repro.analysis` — the end-to-end study pipeline (serial or
  sharded across a process pool; see :mod:`repro.analysis.parallel`)
  and the table/figure report generators.
- :mod:`repro.api` — the canonical entry surface: pluggable
  :class:`~repro.api.sources.DetectionSource` adapters, the renderer
  registry, the checkpointable :class:`~repro.api.service.MoasService`
  session, and the unified ``repro`` CLI.

See README.md for install and quickstart, and CHANGES.md for the
release history.
"""

import importlib

__version__ = "1.10.0"

__all__ = [
    "ASPath",
    "DetectionSource",
    "MoasService",
    "PeerId",
    "Prefix",
    "RibSnapshot",
    "Roa",
    "RoaTable",
    "Route",
    "ValidationState",
    "render",
    "__version__",
]


def lazy_exports(module_name: str, homes: dict[str, str]):
    """A PEP 562 module ``__getattr__`` serving ``homes`` on first use.

    ``homes`` maps each exported name to its home module, which is
    imported only when the name is first looked up.  The facades
    (:mod:`repro` and :mod:`repro.api`) export this way, so importing
    them, and so starting any ``repro`` subcommand, loads no other
    module; every other package ``__init__`` exports nothing.
    """

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            )
        return getattr(importlib.import_module(home), name)

    return __getattr__


__getattr__ = lazy_exports(
    __name__,
    {
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
)
