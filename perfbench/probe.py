"""Set-up probe: a fresh process imports levyhjm and builds the workload's models.

Usage: ``python3 perfbench/probe.py SRC_DIR CONFIG [CONFIG ...]``.  Prints
the seconds from before ``import levyhjm`` until every config has gone
through ``load_scenario`` and ``build_bundle``.
"""

import sys
import time

start = time.perf_counter()
src = sys.argv[1]
sys.path.insert(0, src)

import levyhjm  # noqa: E402
from levyhjm.cli import build_bundle, load_scenario  # noqa: E402

if not levyhjm.__file__.startswith(src):
    sys.exit(f"levyhjm imported from {levyhjm.__file__}, not from {src}")
for config in sys.argv[2:]:
    build_bundle(load_scenario(config))
print(repr(time.perf_counter() - start))
