"""Shared test settings.

Property tests run a fixed, derandomized example set so that every run of
the suite checks the same programs.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")
