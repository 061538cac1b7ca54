#!/usr/bin/env python3
"""Real-time MOAS alerting on a BGP update stream.

Section VII of the paper calls for "techniques for identifying invalid
conflicts with a high degree of certainty" — the lineage that led to
ARTEMIS and BGPalerter.  This example re-enacts the 1998-04-07 AS 8584
incident as a live update stream (genuine BGP4MP messages through our
MRT layer) and shows the streaming detector raising alerts the moment
each hijack lands, plus the duration/registry hints an operator would
triage with.

Run:  python examples/hijack_alerting.py
"""

from repro.core.realtime import AlertKind, StreamingMoasDetector
from repro.mrt.attributes import PathAttributes
from repro.mrt.records import Bgp4mpMessage
from repro.netbase.aspath import ASPath
from repro.netbase.prefix import Prefix


def announce(
    peer: int, prefix: Prefix, *path: int, timestamp: int
) -> tuple[int, Bgp4mpMessage]:
    message = Bgp4mpMessage(
        peer_asn=peer,
        local_asn=6447,  # the collector's ASN
        interface_index=0,
        peer_address=0xC6200001,
        local_address=0xC6336401,
        attributes=PathAttributes(as_path=ASPath.from_sequence(path)),
        announced=(prefix,),
    )
    return (timestamp, message)


def withdraw(
    peer: int, prefix: Prefix, *, timestamp: int
) -> tuple[int, Bgp4mpMessage]:
    message = Bgp4mpMessage(
        peer_asn=peer,
        local_asn=6447,
        interface_index=0,
        peer_address=0xC6200001,
        local_address=0xC6336401,
        withdrawn=(prefix,),
    )
    return (timestamp, message)


def main() -> None:
    victims = [Prefix.parse(f"193.{index}.0.0/16") for index in range(4)]
    owners = [7, 8, 9, 10]

    # A simple origin registry (what an IRR would provide).
    detector = StreamingMoasDetector(
        expected_origins=dict(zip(victims, owners))
    )

    stream = []
    timestamp = 891907200  # 1998-04-07 00:00 UTC
    # Steady state: two peers carry each victim's legitimate route.
    for prefix, owner in zip(victims, owners):
        stream.append(announce(701, prefix, 701, 100, owner, timestamp=timestamp))
        stream.append(
            announce(1239, prefix, 1239, 200, owner, timestamp=timestamp + 1)
        )
    timestamp += 3600
    # The incident: AS 8584 originates everyone's prefixes.
    for offset, prefix in enumerate(victims):
        stream.append(
            announce(
                701, prefix, 701, 8584, timestamp=timestamp + offset * 30
            )
        )
    timestamp += 7200
    # Operators fix it: the false routes are withdrawn (the same peer
    # re-announces the legitimate path).
    for offset, prefix in enumerate(victims):
        owner = owners[offset]
        stream.append(
            announce(
                701, prefix, 701, 100, owner,
                timestamp=timestamp + offset * 30,
            )
        )

    print("processing update stream ...\n")
    for alert in detector.process_stream(iter(stream)):
        flag = ""
        if alert.kind is not AlertKind.MOAS_ENDED:
            expected = detector.is_expected_origin(
                alert.prefix, alert.changed_origin
            )
            flag = "" if expected else "  << origin NOT in registry"
        print(
            f"t={alert.timestamp}  {alert.kind.value:<18} "
            f"{alert.prefix}  origins={sorted(alert.origins)}"
            f"{flag}"
        )

    print(f"\nconflicts still active: {detector.current_conflicts()}")
    print(
        "\nThe registry hint identifies AS 8584's announcements as "
        "suspect instantly —\nthe certainty the paper says duration "
        "alone cannot provide (Section VI-F)."
    )


if __name__ == "__main__":
    main()
