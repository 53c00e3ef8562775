"""Locate the checkout the benchmark sits in and import bslsim from its source.

The benchmark must measure the code beside it, never an installed copy, so
``src`` is put first on ``sys.path`` and the imported package is checked.
The other source it imports from is ``BASELINE``: the benchmark's own frozen
copy of bslsim, which run.py times beside the checkout's code as the speed
reference.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: unchanged copy of src/bslsim as of the commit that added the benchmark
BASELINE = Path(__file__).resolve().parent / "baseline"
SOURCES = {"checkout": SRC, "baseline": BASELINE}


class CheckoutError(RuntimeError):
    """The benchmark is not inside a bslsim checkout."""


def require_sources():
    """Raise CheckoutError unless ``ROOT/src`` holds the bslsim package."""
    if not (SRC / "bslsim" / "__init__.py").is_file():
        raise CheckoutError(f"no bslsim sources under {SRC}; run the benchmark "
                            "from the root of a bslsim checkout")


def import_bslsim(code: str = "checkout"):
    """Import bslsim from ``SOURCES[code]``; raises CheckoutError if it is not there."""
    require_sources()
    src = SOURCES[code]
    sys.path.insert(0, str(src))
    import bslsim
    if Path(bslsim.__file__).resolve().parent != src / "bslsim":
        raise CheckoutError(f"bslsim was imported from {bslsim.__file__}")
    return bslsim
