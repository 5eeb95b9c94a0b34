"""Put the benchmark's modules on the path, as ``run.py`` sees them."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
