"""Hypothesis runs derandomized and without deadlines, so every run of the
suite draws the same examples and slow machines do not fail on timing."""

from hypothesis import settings

settings.register_profile("proptree", derandomize=True, deadline=None, database=None)
settings.load_profile("proptree")
