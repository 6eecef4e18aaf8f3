"""Shared pytest setup: hypothesis draws the same examples on every run."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
