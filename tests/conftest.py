"""Session setup shared by every test module."""

import warnings

# When a hypothesis test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching, whose import warns (DeprecationWarning from
# mypy_extensions.TypedDict).  Under filterwarnings = ["error"] that aborts
# the session with INTERNALERROR instead of reporting the failure.  Imported
# once here with that category ignored, the later import finds it loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
