"""Shared pytest configuration.

The ``ci`` hypothesis profile draws every property's examples from a fixed
seed and drops the per-example deadline, so a property that fails under
``--hypothesis-profile=ci`` fails the same way on every machine.  Runs
without the flag keep hypothesis' random default.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
