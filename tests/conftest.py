"""Shared pytest setup: a deterministic Hypothesis profile.

Property tests draw the same examples on every run and carry no
deadline, so a loaded machine can neither fail nor vary them.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves then
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")
