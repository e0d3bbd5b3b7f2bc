"""Fresh-process set-up step of the benchmark: import gridfreq, then load and
validate every scenario file named on the command line. Exits 1 if a file
does not validate. run.py times this script to get ``setup_s``."""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import gridfreq  # noqa: E402

for path in sys.argv[1:]:
    problems = gridfreq.validate(gridfreq.load_scenario(path))
    if problems:
        print(f"{path}: {'; '.join(problems)}", file=sys.stderr)
        sys.exit(1)
