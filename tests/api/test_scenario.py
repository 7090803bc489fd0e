"""Scenario round-trips, constructor-path parity, bitwise result identity."""

import numpy as np
import pytest

from repro.api import POLICIES, PolicySpec, Scenario, Session, SystemSpec
from repro.datasets import imagenet1k, imagenet22k
from repro.errors import ConfigurationError
from repro.experiments.common import scaled_scenario
from repro.perfmodel import piz_daint, sec6_cluster
from repro.sim import NoiseConfig, NoPFSPolicy, Simulator
from repro.sweep import cell_key, policy_fingerprint
from repro.units import GB

#: A laptop-fast scenario shared across the tests here.
TINY = dict(
    dataset="mnist",
    system="sec6_cluster:2",
    batch_size=16,
    num_epochs=2,
    scale=0.2,
)


def tiny(policy="nopfs", **overrides):
    return Scenario(policy=policy, **{**TINY, **overrides})


class TestRoundTrip:
    def test_dict_round_trip_is_equal(self):
        s = tiny()
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_round_trip_is_equal(self):
        s = tiny(
            policy="deepio:opportunistic",
            system=SystemSpec(
                "sec6_cluster",
                kwargs={"num_workers": 2},
                compute_factor=5.0,
                class_capacities_mb=(64 * GB, 256 * GB),
            ),
            noise=NoiseConfig.disabled(),
        )
        back = Scenario.from_json(s.to_json())
        assert back == s
        assert back.fingerprint() == s.fingerprint()

    def test_string_axes_coerced(self):
        s = tiny()
        assert s.dataset.name == "mnist"
        assert s.system.name == "sec6_cluster:2"
        assert s.policy.name == "nopfs"

    def test_policy_instance_coerced(self):
        s = tiny(policy=NoPFSPolicy())
        assert s.policy == PolicySpec(name="nopfs")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny(batch_size=0)
        with pytest.raises(ConfigurationError):
            tiny(scale=1.5)

    def test_label_is_readable(self):
        assert tiny().label.startswith("mnist/sec6_cluster:2/nopfs/b16/e2")


#: ``(field, value)`` pairs of the wrong type, never coerced.
MALFORMED = [
    ("batch_size", "x"),
    ("batch_size", 1.5),
    ("batch_size", True),
    ("num_epochs", "two"),
    ("num_epochs", 2.0),
    ("seed", 1.5),
    ("seed", "1"),
    ("seed", False),
    ("scale", "abc"),
    ("scale", float("nan")),
    ("scale", float("inf")),
    ("scale", True),
    ("barrier", "maybe"),
    ("barrier", 1),
    ("record_batch_times", "yes"),
    ("record_batch_times", None),
    ("network_interference", float("nan")),
    ("network_interference", float("-inf")),
    ("network_interference", "0.25"),
]


class TestFieldTypes:
    """Knob fields are type-checked on construction, never coerced."""

    @pytest.mark.parametrize("field,value", MALFORMED)
    def test_constructor_rejects(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            tiny(**{field: value})

    @pytest.mark.parametrize("field,value", MALFORMED)
    def test_from_dict_rejects(self, field, value):
        data = {**tiny().to_dict(), field: value}
        with pytest.raises(ConfigurationError, match=field):
            Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "field,value,plain",
        [
            ("batch_size", np.int64(16), 16),
            ("num_epochs", np.uint8(2), 2),
            ("seed", np.int32(3), 3),
            ("scale", np.float64(0.2), 0.2),
        ],
    )
    def test_numpy_numbers_pass_as_they_are(self, field, value, plain):
        s = tiny(**{field: value})
        assert getattr(s, field) is value
        assert s.fingerprint() == tiny(**{field: plain}).fingerprint()

    def test_integral_reals_pass(self):
        s = tiny(scale=1, network_interference=0)
        assert s.scale == 1 and s.network_interference == 0


class TestConstructorParity:
    """Scenario materialization matches the pre-API hand-built path."""

    def test_fig12_style_config_and_key(self):
        seed = 42
        dataset = imagenet1k(seed)
        system = piz_daint(64).replace(compute_mbps=30.0)
        config = scaled_scenario(
            dataset, system, batch_size=64, num_epochs=3, scale=0.25, seed=seed
        )
        old_key = cell_key(config, NoPFSPolicy())

        s = Scenario(
            dataset="imagenet1k",
            system=SystemSpec(
                "piz_daint", kwargs={"num_workers": 64}, overrides={"compute_mbps": 30.0}
            ),
            policy="nopfs",
            batch_size=64,
            num_epochs=3,
            seed=seed,
            scale=0.25,
        )
        assert s.build_config() == config
        assert s.fingerprint() == old_key

    def test_fig9_style_config_and_key(self):
        seed = 7
        system = sec6_cluster().with_compute_factor(5.0).with_class_capacities(
            [64 * GB, 256 * GB]
        )
        config = scaled_scenario(
            imagenet22k(seed), system, batch_size=32, num_epochs=3,
            scale=0.005, seed=seed, noise=NoiseConfig.disabled(),
        )
        s = Scenario(
            dataset="imagenet22k",
            system=SystemSpec(
                "sec6_cluster", compute_factor=5.0, class_capacities_mb=(64 * GB, 256 * GB)
            ),
            policy="nopfs",
            batch_size=32,
            num_epochs=3,
            seed=seed,
            scale=0.005,
            noise=NoiseConfig.disabled(),
        )
        assert s.build_config() == config
        assert s.fingerprint() == cell_key(config, NoPFSPolicy())

    def test_dataset_seed_defaults_to_scenario_seed(self):
        s = tiny(seed=9)
        assert s.build_config().dataset.seed == 9
        explicit = tiny(seed=9, dataset={"name": "mnist", "seed": 3})
        assert explicit.build_config().dataset.seed == 3


class TestPolicySpecInverse:
    @pytest.mark.parametrize("spec", sorted(POLICIES.known()))
    def test_from_policy_round_trips_fingerprint(self, spec):
        built = POLICIES.create(spec)
        again = PolicySpec.from_policy(built).build()
        assert policy_fingerprint(again) == policy_fingerprint(built)

    def test_from_policy_rejects_unrecoverable_state(self):
        from repro.sim.policies.base import Policy as PolicyBase

        class TransformingPolicy(PolicyBase):
            """Stores constructor state under a different attribute name."""

            name = "transforming"

            def __init__(self, depth: int = 1) -> None:
                self.lookahead = depth * 2

            def prepare(self, ctx):
                raise NotImplementedError

        POLICIES.register("test_transforming_policy", TransformingPolicy)
        try:
            with pytest.raises(ConfigurationError):
                PolicySpec.from_policy(TransformingPolicy(depth=3))
        finally:
            # keep the shared registry clean for other tests
            POLICIES._entries.pop("test_transforming_policy")
            POLICIES._families.pop(TransformingPolicy)


class TestBitwiseResults:
    def test_round_tripped_scenario_simulates_identically(self):
        s = tiny(policy="pytorch:2")
        back = Scenario.from_json(s.to_json())
        r1 = Simulator(s.build_config()).run(s.build_policy())
        r2 = Simulator(back.build_config()).run(back.build_policy())
        assert r1.to_json() == r2.to_json()

    @pytest.mark.parametrize("spec", sorted(POLICIES.known()))
    def test_every_registered_policy_round_trips(self, spec):
        """ISSUE 3: every registered policy name survives dict round-trip
        to a bitwise-identical SimulationResult."""
        s = tiny(policy=spec)
        back = Scenario.from_dict(s.to_dict())
        assert back == s
        session = Session()
        assert session.run(s).to_json() == session.run(back).to_json()
