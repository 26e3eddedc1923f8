# Puts the package sources of this checkout on sys.path for the
# benchmark's own tests; the benchmark modules import from this folder.
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
