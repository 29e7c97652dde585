"""Child processes of the benchmark: clean environment, timed lines,
hard deadlines, and no process left behind."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: Environment knobs that would change the workload under test.
_STRIPPED = ("REPRO_ENGINE", "REPRO_WORKERS", "REPRO_PROGRAM_CACHE", "PYTHONPATH")
#: Thread pools of BLAS and friends stay within the machine (one each).
_THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env(root: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _STRIPPED}
    for key in _THREAD_CAPS:
        env[key] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    # Bytecode comes from the run's own cache (see use_pycache), never
    # from __pycache__ directories a test run may have left in src/;
    # children must be free to fill it.
    env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def use_pycache(root: str, workdir: str) -> None:
    """Give this run a bytecode cache of its own and fill it.

    This process and every child (the server's runners inherit the
    variable) read and write bytecode under ``workdir/pycache`` only.
    ``repro`` and the benchmark are compiled here, untimed; the
    standard-library modules a child imports are cached by the first
    child, which each workload runs untimed.
    """
    sys.pycache_prefix = os.path.join(workdir, "pycache")
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(root, "src", "repro"), HERE],
        cwd=root, env=child_env(root), stdout=subprocess.DEVNULL, check=True, timeout=120,
    )


class ChildFailed(RuntimeError):
    pass


class TimedChild:
    """A ``child.py`` process whose stdout lines are timestamped.

    ``marks`` maps each plain marker line (``ready``, ``done``) to the
    seconds since spawn at which it arrived; ``report`` is the parsed
    last line.  A child outliving ``deadline_s`` is killed.
    """

    def __init__(self, args: List[str], root: str, deadline_s: float,
                 stdin_text: Optional[str] = None) -> None:
        self.args = args
        self.marks: Dict[str, float] = {}
        self.report: Optional[Dict] = None
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD] + args,
            cwd=root,
            env=child_env(root),
            stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        timer = threading.Timer(deadline_s, proc.kill)
        timer.start()
        try:
            if stdin_text is not None:
                proc.stdin.write(stdin_text)
                proc.stdin.close()
            last = None
            for line in proc.stdout:
                line = line.rstrip("\n")
                if line.startswith("{"):
                    last = line
                else:
                    self.marks[line] = time.perf_counter() - t0
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        self.returncode = proc.returncode
        if proc.returncode != 0 or last is None:
            raise ChildFailed(f"child {args[0]} exited {proc.returncode}")
        self.report = json.loads(last)


def python_import_seconds(root: str) -> float:
    """Seconds a fresh interpreter spends importing ``repro.service.runner``."""
    child = TimedChild(["import-runner"], root, 60.0)
    return child.report["import_s"]
