"""Hypothesis profiles for the test suite.

    python -m pytest -q --hypothesis-profile=ci

selects "ci": the same example counts, drawn from a fixed seed, so a CI run
tries the same examples every time.  Without the option a run draws fresh
random examples, as before.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
