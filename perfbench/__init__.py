"""Benchmark for levyhjm; see run.py."""
