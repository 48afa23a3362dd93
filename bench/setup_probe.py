"""Set-up cost in a fresh interpreter: import, config load, validation.

    python3 bench/setup_probe.py SRC_DIR CONFIG

Prints one JSON line with the three times in seconds.  Interpreter start-up
itself is not included.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ivoleq  # noqa: E402
import ivoleq.cli  # noqa: E402,F401

t1 = time.perf_counter()
econ = ivoleq.load_config(sys.argv[2])
t2 = time.perf_counter()
ivoleq.require_valid(econ)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1, "require_valid_s": t3 - t2}))
