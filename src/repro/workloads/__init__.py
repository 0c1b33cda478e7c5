"""Workload generation for experiments and benches."""

from repro.workloads.generator import poisson_arrivals, uniform_points, zipf_points

__all__ = ["poisson_arrivals", "uniform_points", "zipf_points"]
