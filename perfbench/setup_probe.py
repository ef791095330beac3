"""Set-up probe: import the package from ./src with numpy and scipy and build
the workload's ExperimentConfig, as a fresh interpreter does before a study.

Usage: python3 perfbench/setup_probe.py '<ExperimentConfig keywords as JSON>'

The caller times the whole process, interpreter start included.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
from centilebench.experiment import ExperimentConfig  # noqa: E402

if __name__ == "__main__":
    ExperimentConfig(**json.loads(sys.argv[1]))
