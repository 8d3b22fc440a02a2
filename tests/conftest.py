"""Suite-wide settings.

Property tests draw their examples deterministically (derandomize) and keep
no example database, so every run of the suite checks the same cases.
"""

from hypothesis import settings

settings.register_profile("suite", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("suite")
