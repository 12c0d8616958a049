import contextlib
import io
import os
import signal
import subprocess
import traceback

from hypothesis import settings, HealthCheck

settings.register_profile(
    "ci", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# The few CLI tests that need a process of their own run ``python -m
# fedtradeoff.cli`` in a subprocess: let it import the package from this
# checkout's src/ as the test process does.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def run_cli_in_process(args, env_extra=None, timeout=None):
    """``cli.main(args)`` in this process, reported as ``subprocess.run`` with
    ``capture_output=True, text=True`` reports a ``python -m fedtradeoff.cli``
    run: a ``CompletedProcess`` with the exit code and the captured stdout and
    stderr.

    ``os.environ`` (updated with ``env_extra``) and the working directory
    are restored afterwards. ``SystemExit`` maps to its code; an
    exception that escapes ``main`` maps to exit 1 with its traceback on
    stderr, as the interpreter would. The suite's warning filter applies here
    as ``PYTHONWARNINGS`` would in a subprocess. A run longer than ``timeout``
    seconds raises ``subprocess.TimeoutExpired``.
    """
    from fedtradeoff import cli

    out, err = io.StringIO(), io.StringIO()
    env, here = dict(os.environ), os.getcwd()

    def expire(signum, frame):
        raise subprocess.TimeoutExpired(args, timeout)

    previous = signal.signal(signal.SIGALRM, expire) if timeout else None
    try:
        os.environ.update(env_extra or {})
        if timeout:
            signal.setitimer(signal.ITIMER_REAL, timeout)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except subprocess.TimeoutExpired:
                raise
            except Exception:          # noqa: BLE001 -- what the interpreter would print
                traceback.print_exc()
                code = 1
    finally:
        if timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        os.chdir(here)
        os.environ.clear()
        os.environ.update(env)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())
