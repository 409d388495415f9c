import os
import subprocess
import sys
from pathlib import Path

import wavefilter

# scipy submodules that each add import time and resident memory; the
# package needs none of them at import
HEAVY = ("scipy.sparse", "scipy.signal", "scipy.fft", "scipy.optimize")


def test_package_import_loads_no_heavy_scipy_submodule():
    code = (
        "import sys, wavefilter; "
        f"print(','.join(m for m in sys.modules if m.startswith({HEAVY!r})))"
    )
    src = str(Path(wavefilter.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.stdout.strip() == ""
