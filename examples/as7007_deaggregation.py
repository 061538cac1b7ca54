#!/usr/bin/env python3
"""Re-enacting the 1997 AS 7007 de-aggregation incident.

Paper, Section VI-E: "On April 25th, 1997, a severe Internet outage
occurred when one ISP falsely de-aggregated most of the Internet
routing table and advertised the prefixes as if they originated from
the faulty ISP.  The falsely originated prefixes resulted in MOAS
conflicts."

The incident predates the paper's archive window, so the reproduction
keeps it as an executable case study: AS 7007 re-originates /24
fragments of everyone's address space; longest-prefix-match forwarding
(our radix trie) then drags traffic to the faulty AS even where the
legitimate aggregate is still present, and same-prefix announcements
show up as MOAS conflicts.

Run:  python examples/as7007_deaggregation.py
"""

import datetime

from repro.bgp.network import Network
from repro.bgp.relationships import ASGraph
from repro.core.detector import detect_snapshot
from repro.netbase.prefix import Prefix
from repro.netbase.trie import PrefixTrie


def main() -> None:
    # The era's setup in miniature: AS 7007 was a customer of Sprint
    # (AS 1239); victims hang off other providers.
    graph = ASGraph()
    graph.add_peering(701, 1239)
    graph.add_peering(701, 7018)
    graph.add_peering(1239, 7018)
    graph.add_customer(1239, 7007)
    graph.add_customer(701, 100)
    graph.add_customer(7018, 200)
    graph.add_customer(100, 7)
    graph.add_customer(200, 8)

    network = Network(graph)

    victims = {
        7: Prefix.parse("24.8.0.0/16"),
        8: Prefix.parse("38.2.0.0/16"),
        100: Prefix.parse("128.9.0.0/16"),
    }
    for owner, prefix in victims.items():
        network.originate(owner, prefix)

    # AS 7007's router de-aggregates: it announces /24 fragments of the
    # victims' blocks as its own, plus the aggregates themselves.
    fragments = []
    for prefix in victims.values():
        for index in range(3):  # a few fragments per block, for brevity
            fragment = Prefix(prefix.network | (index << 8), 24)
            network.originate(7007, fragment)
            fragments.append(fragment)
        network.originate(7007, prefix)  # same-prefix false origination
    network.run_to_convergence()

    day = datetime.date(1997, 4, 25)
    snapshot = network.collector_snapshot(day, peer_asns=[701, 7018, 1239])
    detection = detect_snapshot(snapshot)

    print("=== MOAS conflicts (same-prefix false origination) ===")
    for conflict in detection.conflicts:
        print(
            f"  {conflict.prefix}: origins {sorted(conflict.origins)} "
            "(legitimate vs AS 7007)"
        )

    # Forwarding impact: build AS 701's forwarding table and check
    # where packets for victim addresses actually go.  The /24
    # fragments win longest-prefix match over the legitimate /16s.
    print()
    print("=== forwarding at AS 701 (longest-prefix match) ===")
    table = PrefixTrie()
    router = network.router(701)
    for prefix, best in router.loc_rib().items():
        origin = network.best_path(701, prefix).origin()
        table[prefix] = origin
    for owner, prefix in victims.items():
        inside = prefix.network | 0x0105  # an address inside the block
        matched, origin = table.longest_match_address(inside)
        status = (
            "BLACKHOLED at AS 7007" if origin == 7007 else f"ok -> AS {origin}"
        )
        print(
            f"  traffic to {Prefix(inside, 32)}: matches {matched} "
            f"-> {status}"
        )

    lost = sum(
        1
        for _owner, prefix in victims.items()
        if table.longest_match_address(prefix.network | 0x0105)[1] == 7007
    )
    print()
    print(
        f"{lost}/{len(victims)} victim blocks blackholed — the 1997 "
        "outage mechanism:\nmore-specific false routes beat legitimate "
        "aggregates at every router."
    )


if __name__ == "__main__":
    main()
