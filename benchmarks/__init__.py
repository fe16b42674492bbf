"""Benchmark harness: every experiment in one parametrized module, plus the
sweep, service and hierarchy engine benchmarks."""
