"""The canonical service facade of the reproduction.

Three pluggable layers over the analysis core:

- :mod:`repro.api.sources` — the :class:`DetectionSource` protocol and
  registered adapters (CDS archives, MRT dumps, live BGP networks,
  in-memory feeds), unified behind :func:`open_source`;
- :mod:`repro.api.renderers` — the renderer registry: every
  figure/table behind one ``render(results, figure, format)`` call;
- :mod:`repro.api.service` — :class:`MoasService`, the
  incrementally-feedable, checkpointable study session;
- :mod:`repro.api.serve` — the concurrent query + live-alert HTTP
  daemon (:class:`ServeDaemon`) over a long-lived session;
- :mod:`repro.api.cli` — the single ``repro`` command
  (``simulate | analyze | convert | report | evaluate | watch |
  serve``) built on the facade.
"""

from repro import lazy_exports

__all__ = [
    "ArchiveSource",
    "BackgroundServer",
    "CHECKPOINT_VERSION",
    "DetectionSource",
    "MemorySource",
    "MoasService",
    "MrtFilesSource",
    "NetworkSource",
    "Renderer",
    "ServeConfig",
    "ServeDaemon",
    "available_renderings",
    "open_source",
    "register_renderer",
    "register_source",
    "render",
    "source_kinds",
]

__getattr__ = lazy_exports(
    __name__,
    {
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
)
