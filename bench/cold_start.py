"""Cold-start probe: one fresh interpreter imports the CLI and evaluates
``1``, the smallest complete use of the program.

Run by ``run.py``, which times the whole process from outside; this
script reports the two parts it can see from inside as one JSON line.
"""

import contextlib
import io
import json
import time

t0 = time.perf_counter()
from repetend import cli  # noqa: E402  (the import is what is timed)

t1 = time.perf_counter()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.run(["eval", "1"])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "run_s": t2 - t1, "code": code,
                  "stdout": out.getvalue()}))
