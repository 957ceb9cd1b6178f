"""Test-wide settings.

Property tests draw their examples from a fixed seed and keep no example
database, so every run of the suite tries the same inputs; no deadline,
because timings on a shared machine would make that flaky.
"""

from hypothesis import settings

settings.register_profile("ctxkit", derandomize=True, deadline=None, database=None)
settings.load_profile("ctxkit")
