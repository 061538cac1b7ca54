#!/usr/bin/env python3
"""Quickstart: detect and classify a MOAS conflict in 60 lines.

Builds a seven-AS Internet with the BGP engine, lets a second AS
falsely originate a prefix (a misconfiguration, like the AS 8584
incident the paper analyzes), takes a Route Views style snapshot, and
runs the paper's detection + classification on it.

Run:  python examples/quickstart.py
"""

import datetime

from repro.bgp.network import Network
from repro.bgp.relationships import ASGraph
from repro.core.classifier import classify_conflict
from repro.core.detector import detect_snapshot
from repro.netbase.prefix import Prefix

# 1. A small Internet: two tier-1s peering, two regional transits,
#    three edge ASes.  add_customer(provider, customer).
graph = ASGraph()
graph.add_peering(701, 1239)
graph.add_customer(701, 100)
graph.add_customer(1239, 200)
graph.add_customer(100, 7)
graph.add_customer(200, 8)
graph.add_customer(100, 9)
graph.add_customer(200, 9)  # AS 9 is multihomed

network = Network(graph)

# 2. AS 7 legitimately originates a prefix; AS 8 misconfigures and
#    originates the same prefix.
prefix = Prefix.parse("192.0.2.0/24")
network.originate(7, prefix)
network.originate(8, prefix)
network.run_to_convergence()

# 3. A collector peering with three ASes dumps their tables.
snapshot = network.collector_snapshot(
    datetime.date(2001, 4, 6), peer_asns=[701, 1239, 9]
)

# 4. The paper's methodology: scan the table for multi-origin prefixes.
detection = detect_snapshot(snapshot)
print(f"prefixes scanned:  {detection.prefixes_scanned}")
print(f"MOAS conflicts:    {detection.num_conflicts}")

conflict = detection.conflicts[0]
print(f"conflicted prefix: {conflict.prefix}")
print(f"origin ASes:       {sorted(conflict.origins)}")
for origin, paths in conflict.paths_by_origin:
    for path in paths:
        print(f"  path to AS {origin}: {' '.join(str(asn) for asn in path)}")

# 5. Section V classification: OrigTranAS / SplitView / DistinctPaths.
print(f"conflict class:    {classify_conflict(conflict).value}")

# 6. Where does hijacked traffic go?  Peers that selected AS 8's false
#    route forward toward AS 8 and the packets are lost (Section VI-E).
for asn in (701, 1239, 9):
    path = network.best_path(asn, prefix)
    chosen = path.origin()
    marker = "LOST (faulty origin)" if chosen == 8 else "ok"
    print(f"AS {asn} selected origin {chosen}: {marker}")
