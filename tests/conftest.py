"""Test-session setup: Hypothesis draws the same examples on every run.

The profile fixes the example sequence (no random seed, no example
database) and drops the per-example deadline, so a tier-1 run is
reproducible and timing noise on a loaded machine cannot fail it.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
