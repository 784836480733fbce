"""Seeded, layered benchmark for the search engine; see run.py."""
