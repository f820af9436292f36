"""Benchmark of trialport's Monte Carlo, design-sweep and analyst CLI workloads."""
