"""Internet-like topology and address-space generation, 1997-2001 era.

The paper measured the real Internet as it grew from roughly 50k to 104k
prefixes and 3k to 11k ASes.  This subpackage generates a synthetic
equivalent: a tiered, policy-annotated AS graph
(:mod:`repro.topology.generator`), realistic prefix allocation
(:mod:`repro.topology.addressing`), append-only daily growth
(:mod:`repro.topology.growth`) and exchange points
(:mod:`repro.topology.ixp`).  All magnitudes scale linearly with the
``scale`` parameter so laptop-size studies keep paper-shaped statistics.
"""
