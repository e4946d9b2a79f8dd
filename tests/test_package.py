import os
import subprocess
import sys

import cmtmimo


def test_import_starts_no_thread():
    # a bare package import loads no submodule and no numerical library;
    # the CLI loads no scipy.signal and the scipy modules it pulls in;
    # the harness opens its worker pool per run, never at import
    src = os.path.dirname(os.path.dirname(cmtmimo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, threading\n"
        "import cmtmimo\n"
        "print(sorted(m for m in sys.modules if m.startswith(('cmtmimo.', 'numpy', 'scipy'))))\n"
        "import cmtmimo.cli\n"
        "print([m for m in ('scipy.signal', 'scipy.stats', 'scipy.interpolate', 'scipy.optimize')"
        " if m in sys.modules])\n"
        "print(cmtmimo.__file__)\n"
        "print([t.name for t in threading.enumerate()])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.splitlines()
    assert out == ["[]", "[]", cmtmimo.__file__, "['MainThread']"]
