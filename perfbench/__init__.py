"""Benchmark of gradedalg; see run.py and README.md."""
