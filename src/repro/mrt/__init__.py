"""MRT routing-archive codec (RFC 6396 subset).

The paper's raw data is daily Route Views table dumps archived by NLANR
and PCH in MRT format.  The reproduction environment has neither network
access nor ``mrtparse``, so this subpackage implements the format from
scratch — both directions:

- :mod:`repro.mrt.reader` parses MRT files into
  :class:`repro.netbase.rib.RibSnapshot` objects,
- :mod:`repro.mrt.writer` serializes simulated collector state into
  valid MRT files, which is how the synthetic archive is produced.

Supported record types: TABLE_DUMP (IPv4), TABLE_DUMP_V2
(PEER_INDEX_TABLE / RIB_IPV4_UNICAST) and BGP4MP state/update messages
sufficient for the real-time alerter extension.
"""
