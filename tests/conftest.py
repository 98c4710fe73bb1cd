"""Shared fixtures: the sequential identification runs once per session.

The velocity and thermal fits are the expensive part of the suite, and
several files check different properties of the same default-settings
runs, so they are computed once here and handed around.
"""

import time

import pytest

from jhflow.cases import CASE_IDS, get_case
from jhflow.fitting import fit, thermal_objective_spec, velocity_objective_spec


@pytest.fixture(scope="session")
def velocity_fits():
    """Default-settings velocity fit per bundled case, with wall time."""
    out = {}
    for case_id in CASE_IDS:
        case = get_case(case_id)
        spec = velocity_objective_spec(case.params)
        started = time.perf_counter()
        result = fit(spec, case.params)
        out[case_id] = {
            "case": case,
            "spec": spec,
            "result": result,
            "seconds": time.perf_counter() - started,
        }
    return out


@pytest.fixture(scope="session")
def thermal_fits(velocity_fits):
    """Sequential thermal fit per case, against the fitted velocity series."""
    out = {}
    for case_id, entry in velocity_fits.items():
        case = entry["case"]
        profile = entry["result"].series
        spec = thermal_objective_spec(case.params, velocity_polynomial=profile)
        started = time.perf_counter()
        result = fit(spec, case.params)
        out[case_id] = {
            "case": case,
            "spec": spec,
            "result": result,
            "velocity_polynomial": profile,
            "theta": result.series,
            "seconds": time.perf_counter() - started,
        }
    return out
