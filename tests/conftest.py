"""Session setup shared by every test module, and the benchmark's pinned digests."""

import json
import math
import warnings
from pathlib import Path

from hypothesis import strategies as st

from wconvexity.means import _SMALL_P

# When a hypothesis test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching, whose import warns (DeprecationWarning from
# mypy_extensions.TypedDict).  Under filterwarnings = ["error"] that aborts
# the session with INTERNALERROR instead of reporting the failure.  Imported
# once here with that category ignored, the later import finds it loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# The one home of the pinned output digests: each benchmark argv, with output
# files as {report}, {csv} and {svg}, maps to the sha256 of stdout or of each
# named file.  Tests read a digest here rather than repeat it.
_PINNED_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"
PINNED = json.loads(_PINNED_PATH.read_text(encoding="utf-8"))

# Orders p for the property tests, drawn by magnitude: sign * 10**U(-8, 3), with
# 0, -0.0, +-1 and holder_mean's branch edges +-_SMALL_P and their neighbours
# mixed in.  A uniform draw over [-50, 50] puts few orders below 0.1.
_EDGES = (math.nextafter(_SMALL_P, 0.0), _SMALL_P, math.nextafter(_SMALL_P, 1.0))
ORDERS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, *_EDGES, *(-edge for edge in _EDGES))),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((1.0, -1.0)), st.floats(-8.0, 3.0)),
)


def raster_cells(r):
    """A raster's ``(p, q, cls)`` triples in cell order, expanded from its class runs."""
    return tuple((p, q, cls) for p, runs in zip(r.ps, r.columns) for cls, a, b in runs for q in r.qs[a:b])
