"""``python -m dekws``: the dekws command line, run from a source tree too."""

import sys

from .cli import main

if __name__ == "__main__":  # importing every module must not run the CLI
    sys.exit(main())
