import os

from hypothesis import settings, HealthCheck

settings.register_profile(
    "ci", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# Deterministic single-threaded default; thread-count tests override locally.
os.environ.setdefault("FEDTRADEOFF_THREADS", "1")

# CLI tests run ``python -m fedtradeoff.cli`` in a subprocess: let it import the
# package from this checkout's src/ as the test process does.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
