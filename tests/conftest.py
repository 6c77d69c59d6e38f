import os
import sys

# The CLI's thread policy (OPENBLAS_NUM_THREADS=1 unless a thread count is
# set), applied before any test module is collected.  Importing the CLI sets
# the variable, and tests/test_cli.py imports it, so without this the
# environment that a subprocess test inherits would depend on which modules
# were collected before it.
import todagibbs.cli  # noqa: F401
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "numerics",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerics")
