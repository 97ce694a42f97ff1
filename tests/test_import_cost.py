"""The CLI, service, worker and sweep paths run without scipy.

scipy is imported only inside the three functions that call it
(``analysis.stats.mean_ci``/``sign_test`` and
``middleware.pbs.fit_throughput_curve``).  A module-level scipy import
anywhere on the CLI's import chain costs every ``repro`` process,
``repro serve`` and ``repro worker`` included, about half a second and
60 MB.  Each check runs in a fresh interpreter so that modules this
test session already imported cannot hide the import.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_entry_points_do_not_import_scipy():
    proc = run_python(
        "import sys\n"
        "import repro.cli, repro.core.parallel\n"
        "import repro.service.server, repro.service.worker\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_runs_without_scipy():
    proc = run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.cli import main\n"
        "sys.exit(main(['-q', 'list']))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "fig5" in proc.stdout
