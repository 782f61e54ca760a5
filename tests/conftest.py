"""Shared pytest configuration: hypothesis profiles.

Profiles keep example counts consistent across the property-test modules
and overridable from one place:

* ``default`` — a dozen examples per property, enough to catch regressions
  in the tier-1 run without dominating its wall-clock; derandomized, so a
  red tier-1 means the tree changed, not the draw.
* ``thorough`` — the random search: CI's scheduled job (and chaos-CI).  A
  falsifying example it finds is committed as an ``@example`` line.
* ``differential`` — the scheduler/queue equivalence plane's CI budget:
  200 examples per property, derandomized so the differential job is
  reproducible run-to-run.

Select with ``HYPOTHESIS_PROFILE=thorough pytest ...``.
"""

import os

from hypothesis import HealthCheck, settings

_SUPPRESS = [HealthCheck.too_slow, HealthCheck.data_too_large]

settings.register_profile(
    "default",
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=_SUPPRESS,
)
settings.register_profile(
    "thorough",
    max_examples=100,
    deadline=None,
    suppress_health_check=_SUPPRESS,
)
settings.register_profile(
    "differential",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=_SUPPRESS,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
