"""Shared utilities: dates, deterministic RNG streams, ASCII plotting,
tables, worker-count resolution."""
