"""Child processes that the tests start import the package from this checkout.

``pythonpath`` in pyproject.toml puts ``src`` on the test process's own path;
the tests that run ``python -c`` or ``python -m phasequant.cli`` need it in
PYTHONPATH as well.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
