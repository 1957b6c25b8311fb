"""Settings shared by every test module."""

from hypothesis import settings

# every property test draws the same examples on every run
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
