import os
import subprocess
import sys

import cmtmimo


def test_all_names_resolve_and_none_repeats():
    names = cmtmimo.__all__
    assert len(names) == len(set(names)), "a name repeats in cmtmimo.__all__"
    namespace = {}
    # a name in __all__ that the package lacks makes the star import raise
    exec("from cmtmimo import *", namespace)
    for name in names:
        assert namespace[name] is getattr(cmtmimo, name)


def test_import_starts_no_thread():
    # the harness opens its worker pool per run, never at import
    src = os.path.dirname(os.path.dirname(cmtmimo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import threading\n"
        "import cmtmimo, cmtmimo.cli\n"
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
    assert out == [cmtmimo.__file__, "['MainThread']"]
