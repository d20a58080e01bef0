"""Cold set-up probe, run by the benchmark in a fresh interpreter.

    PYTHONPATH=src python3 bench/coldstart.py 64

Times `import laurentfft` and build_plan for each block length given, and
prints one JSON line: {"file": ..., "import_s": ..., "build_s": ...}.
Nothing is imported before the clock starts, so no cache can hide the cost.
"""

import sys
import time

t0 = time.perf_counter()
import laurentfft  # noqa: E402

t1 = time.perf_counter()
for n in sys.argv[1:]:
    laurentfft.plan.build_plan(int(n))
t2 = time.perf_counter()

import json  # noqa: E402

print(json.dumps({"file": laurentfft.__file__, "import_s": t1 - t0, "build_s": t2 - t1}))
