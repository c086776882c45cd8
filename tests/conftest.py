"""Shared pytest set-up: property tests draw the same examples on every run
and keep no example database."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
