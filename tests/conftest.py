"""Suite-wide settings.

Property tests draw their examples deterministically (derandomize) and keep
no example database, so every run of the suite checks the same cases.

A failing property makes hypothesis import hypothesis.extra._patching, whose
import chain raises a DeprecationWarning (mypy_extensions); under the
suite's filterwarnings = error that aborted the session, so the module is
imported once here with that warning ignored.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("suite", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("suite")
