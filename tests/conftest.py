"""Test-suite-wide configuration: deterministic hypothesis runs.

``repro`` is the default profile: derandomized, so every property run
is bit-identical.  ``repro-random`` has the same settings but draws
fresh examples; run the fast/reference suites under it with
``--hypothesis-profile=repro-random --hypothesis-seed=<n>`` to test
them on new random inputs.
"""

from hypothesis import HealthCheck, settings

_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "repro",
    derandomize=True,  # bit-identical property runs, matching the
    **_COMMON,         # library's reproducibility policy
)
settings.register_profile("repro-random", derandomize=False, **_COMMON)
settings.load_profile("repro")
