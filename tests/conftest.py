"""Test-wide settings: Hypothesis draws the same examples on every run and
keeps no example database, so no test reads or writes an ignored file."""

from hypothesis import settings

settings.register_profile("hermetic", database=None, derandomize=True)
settings.load_profile("hermetic")
