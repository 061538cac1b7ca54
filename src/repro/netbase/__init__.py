"""IP and AS-number primitives underlying the whole library.

This subpackage is the lowest layer of the reproduction: IPv4 prefixes,
AS numbers, AS paths (with AS_SET / AS_SEQUENCE segments, which the paper
explicitly discusses), a binary radix trie for prefix lookups, and the
routing-table structures every other layer exchanges.
"""
