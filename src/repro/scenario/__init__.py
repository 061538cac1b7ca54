"""The measurement world: cause processes, collector, daily archive.

This subpackage is the synthetic stand-in for the paper's raw material —
the real 1997-2001 Internet observed through Oregon Route Views and
archived daily by NLANR/PCH.  It combines the topology substrate with
stochastic *cause processes* for every MOAS source the paper discusses
(Section VI), re-enacts the paper's scripted fault incidents on their
historical dates, routes everything through Gao-Rexford policies to the
collector's peers, and writes daily snapshots to an archive that the
analysis pipeline consumes without any knowledge of how it was made.
"""
