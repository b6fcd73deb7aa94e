"""Test-suite settings shared by every module.

Property tests run a fixed, bounded set of examples so that repeated runs of
the suite test the same inputs and finish in bounded time.
"""

from hypothesis import settings

settings.register_profile(
    "cvcluster", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("cvcluster")
