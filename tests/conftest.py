"""Suite-wide settings and shared reference helpers.

Property tests draw their examples deterministically (derandomize) and keep
no example database, so every run of the suite checks the same cases.

A failing property makes hypothesis import hypothesis.extra._patching, whose
import chain raises a DeprecationWarning (mypy_extensions); under the
suite's filterwarnings = error that aborted the session, so the module is
imported once here with that warning ignored.
"""

import warnings

from hypothesis import settings

from ads3s3.algebra import SECTOR_SIGNS
from ads3s3.charges import current_matrices
from ads3s3.geometry import InducedMetric, _metric

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("suite", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("suite")


def induced_metric_currents(sol, tau=0.0, sigma=0.0):
    """Exact induced metric from the closed-form currents f_ab = <R_a R_b>.

    The reference the battery's metric_gap is compared with: the currents of
    current_matrices, not the derivative kernel, through the one metric relation.
    """
    ads, sph = (_metric(cur.R_tau, cur.R_sig, sign) for sign, cur in
                zip(SECTOR_SIGNS, current_matrices(sol, float(tau), float(sigma))))
    return InducedMetric(ads=ads, sphere=sph)
