"""Set-up cost of one study in a fresh process: import, config parse and
dataset build, each timed from inside the process.

Run from the repository root:

    python3 perfbench/setup_probe.py CONFIG [KEY=VALUE ...]

Prints one JSON object with ``import_s``, ``parse_s`` and ``build_data_s``.
"""

import sys
import time

t0 = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import yaml  # noqa: E402

from studyforge import cli  # noqa: E402
from studyforge.orchestrator import build_objective  # noqa: E402

t1 = time.perf_counter()
raw = yaml.safe_load(Path(sys.argv[1]).read_text())
config = cli.config_from_mapping(cli.apply_overrides(raw, sys.argv[2:]))
t2 = time.perf_counter()
build_objective(config)
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "build_data_s": t3 - t2}))
