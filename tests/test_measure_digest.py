"""Golden digests of the measurement layer's output.

Every byte the measurement pipeline produces for the first configurations
of the small testbed's schedule — the resolved assignment, the resolution
stats, the usable-path and dropped-trace counts, the gap index and the
measured dataset export — is hashed and compared with a digest recorded
before any performance work on the layer.  A change to any of them is a
change to what the system measures, not an optimisation.
"""

import hashlib
import json

import pytest

from repro.core.configgen import ScheduleParams, generate_schedule
from repro.data import Dataset
from repro.faults.injection import FaultInjector
from repro.faults.plan import COLLECTOR_FLAP, MEASUREMENT_LOSS, FaultPlan, FaultSpec
from repro.measurement.catchment import CatchmentHistory
from repro.measurement.repair import build_gap_index

#: Scheduled configurations measured per run.
NUM_CONFIGS = 40

#: Collector flaps and traceroute loss on a share of the configurations.
FAULT_PLAN = FaultPlan(
    name="measure-digest",
    seed=3,
    specs=(
        FaultSpec(kind=COLLECTOR_FLAP, rate=0.5, intensity=0.3),
        FaultSpec(kind=MEASUREMENT_LOSS, rate=0.5, intensity=0.2, start=2),
    ),
)

#: Digests recorded on the measurement code before its rewrite.
GOLDEN = {
    "plain": {
        "configs": "2956dd581cff8c784a9c12bce6e1f9896f9b8129c03a896d4d19887ae2e660b5",
        "dataset": "c6be61558153761984b27d0db23cc327c6a4bd4dfe0589ef631d93e40e204a9b",
    },
    "faults": {
        "configs": "fbe0edbb15e4a09a2be175134d39f89aed9a982c3401cad537711241d50f003b",
        "dataset": "ea390dc4686528bf202b1fd702150cddebc29ca2caf01662ca2a4515252c6223",
    },
}


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _measure_digests(testbed, outcomes, configs, injector):
    """Digest of every config's measurement and of the measured dataset."""
    campaign = testbed.campaign
    fleet = campaign.fleet
    history = None
    rows = []
    for index, outcome in enumerate(outcomes):
        measurement = campaign.measure(outcome, fault_token=index, injector=injector)
        traceroutes = fleet.all_traceroutes(outcome)
        if injector is not None:
            traceroutes, _ = injector.drop_traceroutes(index, traceroutes)
        gap_index = build_gap_index(traceroutes)
        rows.append(
            {
                "assignment": sorted(measurement.assignment.items()),
                "stats": [
                    measurement.stats.sources_observed,
                    measurement.stats.sources_in_multiple_catchments,
                ],
                "bgp_paths_observed": measurement.bgp_paths_observed,
                "traceroutes_observed": measurement.traceroutes_observed,
                "traceroutes_dropped": sorted(measurement.traceroutes_dropped.items()),
                "gap_index": sorted(
                    [list(pair), sorted(list(segment) for segment in segments)]
                    for pair, segments in gap_index.items()
                ),
            }
        )
        if history is None:
            history = CatchmentHistory(frozenset(measurement.assignment))
        history.add(measurement.assignment)
    links = testbed.origin.link_ids
    dataset = Dataset.from_catchment_history(
        links, configs, history.catchment_maps(links)
    )
    return {"configs": _sha(rows), "dataset": _sha(dataset.to_json_dict())}


@pytest.fixture(scope="module")
def deployed(small_testbed):
    configs = generate_schedule(
        small_testbed.origin, small_testbed.graph, ScheduleParams()
    )[:NUM_CONFIGS]
    outcomes = [small_testbed.simulator.simulate(config) for config in configs]
    return configs, outcomes


@pytest.mark.parametrize("mode", ["plain", "faults"])
def test_measurement_digest_is_golden(small_testbed, deployed, mode):
    configs, outcomes = deployed
    injector = FaultInjector(FAULT_PLAN) if mode == "faults" else None
    digests = _measure_digests(small_testbed, outcomes, configs, injector)
    assert digests == GOLDEN[mode]


def test_fault_plan_fires(small_testbed, deployed):
    configs, outcomes = deployed
    injector = FaultInjector(FAULT_PLAN)
    flapped = lost = 0
    for index, outcome in enumerate(outcomes):
        measurement = small_testbed.campaign.measure(
            outcome, fault_token=index, injector=injector
        )
        flapped += measurement.collectors_flapped
        lost += measurement.traceroutes_lost
    assert flapped > 0
    assert lost > 0
