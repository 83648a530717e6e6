"""Benchmark of the wordproblem package; see README.md in this directory."""
