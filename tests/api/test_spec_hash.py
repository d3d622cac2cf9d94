"""Spec hashing: the store keys every cached result and artifact is found by.

``canonical_json`` builds its document from the fields directly; these tests
pin it to the ``dataclasses.asdict`` serialization it replaced, so existing
stores keep hitting, and pin a few digests outright.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.specs import (
    AlgorithmSpec,
    CollectiveSpec,
    RunSpec,
    SimulationSpec,
    TopologySpec,
)

MB = 1e6

_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
)
_params = st.dictionaries(
    st.text() | st.integers(-5, 5),
    st.recursive(
        _leaves,
        lambda children: st.lists(children, max_size=3)
        | st.tuples(children, children)
        | st.dictionaries(st.text() | st.integers(-5, 5), children, max_size=3),
        max_leaves=10,
    ),
    max_size=4,
)
_names = st.text(min_size=1)


@st.composite
def _run_specs(draw):
    return RunSpec(
        topology=TopologySpec(name=draw(_names), params=draw(_params)),
        collective=CollectiveSpec(
            name=draw(_names),
            collective_size=draw(st.floats(min_value=1e-3, max_value=1e15)),
            chunks_per_npu=draw(st.integers(1, 64)),
            params=draw(_params),
        ),
        algorithm=AlgorithmSpec(name=draw(_names), params=draw(_params)),
        simulation=SimulationSpec(
            simulate=draw(st.booleans()),
            routing_message_size=draw(st.none() | st.floats(min_value=1.0, max_value=1e12)),
        ),
        label=draw(st.text()),
    )


def _asdict_json(spec):
    """The serialization ``canonical_json`` used to be defined by."""
    return json.dumps(
        dataclasses.asdict(spec), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


@settings(max_examples=150, deadline=None)
@given(spec=_run_specs())
def test_canonical_json_matches_asdict(spec):
    assert spec.canonical_json() == _asdict_json(spec)
    for part in (spec.topology, spec.collective, spec.algorithm, spec.simulation):
        assert part.canonical_json() == _asdict_json(part)


def test_golden_spec_hashes():
    # One spec of the sweep-store benchmark, the 128-NPU All-Reduce of
    # rfs128-ar, and one exercising every field.  A changed digest orphans
    # every stored result and artifact.
    sweep = RunSpec(
        topology=TopologySpec("ring", {"num_npus": 8}),
        collective=CollectiveSpec("all_reduce", collective_size=1 * MB),
        algorithm=AlgorithmSpec("tacos", {"seed": 501}),
    )
    rfs128 = RunSpec(
        topology=TopologySpec("rfs_3d", {"ring_size": 2, "fc_size": 4, "switch_size": 16}),
        collective=CollectiveSpec("all_reduce", collective_size=256 * MB),
        algorithm=AlgorithmSpec("tacos", {"seed": 51_100_000}),
    )
    full = RunSpec(
        topology=TopologySpec("mesh", {"dims": (3, 3)}),
        collective=CollectiveSpec("gather", 4e6, chunks_per_npu=2, params={"root": 0}),
        algorithm=AlgorithmSpec(
            "guided", {"trials": 32, "seed": 1, "weights": {"a": [1.5, None, True]}}
        ),
        simulation=SimulationSpec(simulate=False, routing_message_size=1e5),
        label="pinned é☃",
    )
    assert sweep.spec_hash() == "cf163af666cc2a1c60a48729a1f49fd61561858a590438469c33cdf708c84b7d"
    assert rfs128.spec_hash() == "01c989177d8d12df1be7f94a3e320618fb2da7c11373cd00acfc0ff68b8f3cc4"
    assert full.spec_hash() == "2f35020a812724b7ee823e48ed6e3332cdd172f7f2455f26e432e02343ae5c85"


def test_mutating_to_dict_leaves_the_spec_unchanged():
    spec = RunSpec(
        topology=TopologySpec("mesh", {"dims": [3, 3], "extra": {"k": [1]}}),
        collective=CollectiveSpec("all_gather", params={"root": 0}),
        algorithm=AlgorithmSpec("tacos", {"seed": 3}),
    )
    before = (spec.canonical_json(), spec.spec_hash())
    document = spec.to_dict()
    document["topology"]["params"]["dims"].append(9)
    document["topology"]["params"]["extra"]["k"].append(2)
    document["collective"]["params"]["root"] = 5
    document["algorithm"]["params"].clear()
    document["label"] = "changed"
    assert (spec.canonical_json(), spec.spec_hash()) == before
    assert spec.topology.params == {"dims": [3, 3], "extra": {"k": [1]}}
    assert spec.algorithm.params == {"seed": 3}
