"""Test-suite settings shared by every module.

Loads one hypothesis profile without a per-example deadline: the property
tests run whole fits and CSV round trips, whose time per example varies
with machine load, and a timing failure would say nothing about the code.
"""

from hypothesis import settings

settings.register_profile("thermofit", deadline=None)
settings.load_profile("thermofit")
