"""A policy-aware BGP route-propagation engine.

The paper's data comes from real BGP routers applying commercial routing
policies.  This subpackage reproduces that substrate at two levels:

- :mod:`repro.bgp.network` — a full per-router message-passing engine
  (adj-RIB-in, decision process, export filtering) used by the examples,
  the integration tests and the real-time alerter workloads.
- :mod:`repro.bgp.oracle` — a Gao-Rexford path oracle that computes the
  converged best path from every AS to a given origin in one pass; the
  1279-day study uses it because message-level simulation of 10^5
  prefix-days is unnecessary when only converged tables are archived.

Both levels share the same relationship model and export rules, and the
test suite asserts they agree on converged paths.
"""
