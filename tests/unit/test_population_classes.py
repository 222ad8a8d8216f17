"""One population class pass for the fleet analyzer and the co-simulation.

``FleetPopulation.classes()`` groups users into ``(device, app)`` classes;
``FleetAnalyzer`` uses them as they are and ``CoSimulation`` splits them
further by controller/trace identity when either is given per user.  The
property test below checks the co-sim partition against a per-user
reference of the earlier key rule, ``(device, app, id(controller),
id(trace))`` resolved user by user, which is kept here.
"""

import pickle
from dataclasses import replace
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import Controller, StaticBaseline, burst_trace, step_trace
from repro.adaptive.traces import ConditionTrace
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.cosim import CoSimulation
from repro.exceptions import ConfigurationError
from repro.fleet import FleetAnalyzer, homogeneous, mixed_devices
from repro.fleet.population import FleetPopulation, UserProfile

DEVICES = ("XR1", "XR2", "XR6")
BASE = ApplicationConfig.object_detection_default()
REMOTE = BASE.with_mode(ExecutionMode.REMOTE)
TRACES = (burst_trace(2, seed=0), step_trace(2, seed=1))
CONTROLLERS = (StaticBaseline(0), StaticBaseline(1))


def _reference(population, controller, trace):
    """Class names, sizes and per-user indices under the per-user key rule."""

    def resolve(spec, user):
        if isinstance(spec, Mapping):
            return spec[user.name]
        if isinstance(spec, ConditionTrace):
            return spec
        if callable(spec) and not isinstance(spec, Controller):
            return spec(user)
        return spec

    index_of = {}
    names, sizes, class_of, alive = [], [], [], []
    for user in population:
        user_controller, user_trace = resolve(controller, user), resolve(trace, user)
        alive.append((user_controller, user_trace))  # keeps every id() unique
        key = (user.device, user.app, id(user_controller), id(user_trace))
        if key not in index_of:
            index_of[key] = len(names)
            names.append(f"{user.device}/{user_controller.name}#{len(names)}")
            sizes.append(0)
        sizes[index_of[key]] += 1
        class_of.append(index_of[key])
    return names, sizes, class_of


@st.composite
def _fleets(draw):
    n_users = draw(st.integers(1, 8))
    n_devices = draw(st.integers(1, 3))
    users = []
    for index in range(n_users):
        device = DEVICES[draw(st.integers(0, n_devices - 1))]
        # 0: the shared base app, 1: a shared remote variant, 2: a fresh
        # app equal to the base but a distinct object.
        app = (BASE, REMOTE, replace(BASE))[draw(st.integers(0, 2))]
        users.append(UserProfile(name=f"u{index}", device=device, app=app))
    population = FleetPopulation(users=tuple(users))

    controller_kind = draw(st.sampled_from(("shared", "mapping", "factory")))
    if controller_kind == "shared":
        controller = CONTROLLERS[0]
    elif controller_kind == "mapping":
        controller = {
            user.name: CONTROLLERS[draw(st.integers(0, 1))] for user in population
        }
    elif draw(st.booleans()):
        controller = lambda user: StaticBaseline(int(user.name[1:]) % 2)  # noqa: E731
    else:
        controller = lambda user: CONTROLLERS[int(user.name[1:]) % 2]  # noqa: E731

    if draw(st.booleans()):
        trace = TRACES[0]
    else:
        trace = {user.name: TRACES[draw(st.integers(0, 1))] for user in population}
    return population, controller, trace


class TestCosimPartition:
    @settings(max_examples=40, deadline=None)
    @given(_fleets())
    def test_matches_the_per_user_key_rule(self, fleet):
        population, controller, trace = fleet
        names, sizes, class_of = _reference(population, controller, trace)
        sim = CoSimulation(population, controller, trace, n_edges=2, include_aoi=False)
        assert sim._class_of_user.tolist() == class_of
        for index, cls in enumerate(sim._classes):
            assert cls.users.tolist() == [
                user for user, value in enumerate(class_of) if value == index
            ]
        report = sim.run()
        assert list(report.class_names) == names
        assert list(report.class_sizes) == sizes

    def test_shared_specs_use_the_population_classes(self):
        population = mixed_devices(9)
        sim = CoSimulation(population, CONTROLLERS[0], TRACES[0], include_aoi=False)
        assert sim._class_of_user is population.classes()[0]
        assert [cls.name for cls in sim._classes] == [
            "XR1/static[0]#0",
            "XR2/static[0]#1",
            "XR6/static[0]#2",
        ]


class TestSpecBoundaries:
    def test_controller_mapping_missing_a_user_names_it(self):
        population = homogeneous(3)
        controller = {user.name: CONTROLLERS[0] for user in list(population)[:2]}
        with pytest.raises(ConfigurationError, match="no controller given for user 'user-0002'"):
            CoSimulation(population, controller, TRACES[0])

    def test_trace_mapping_missing_a_user_names_it(self):
        population = homogeneous(3)
        trace = {user.name: TRACES[0] for user in list(population)[1:]}
        with pytest.raises(ConfigurationError, match="no trace given for user 'user-0000'"):
            CoSimulation(population, CONTROLLERS[0], trace)

    def test_non_trace_value_in_a_trace_mapping_raises(self):
        population = homogeneous(3)
        trace = {user.name: TRACES[0] for user in population}
        trace["user-0001"] = "step"
        with pytest.raises(ConfigurationError, match="cannot interpret 'step' as a"):
            CoSimulation(population, CONTROLLERS[0], trace)

    def test_factories_are_called_exactly_once_per_user(self):
        population = mixed_devices(5)
        calls = []

        def controller_factory(user):
            calls.append(("controller", user.name))
            return StaticBaseline(0)

        def trace_factory(user):
            calls.append(("trace", user.name))
            return TRACES[0]

        CoSimulation(population, controller_factory, trace_factory, include_aoi=False)
        assert sorted(calls) == sorted(
            (kind, user.name) for user in population for kind in ("controller", "trace")
        )


class TestPopulationClasses:
    def test_equal_but_distinct_apps_share_a_class(self):
        users = (
            UserProfile("a", "XR1", BASE),
            UserProfile("b", "XR2", BASE),
            UserProfile("c", "XR1", replace(BASE)),
            UserProfile("d", "XR1", REMOTE),
        )
        class_of, keys = FleetPopulation(users=users).classes()
        assert class_of.dtype == np.intp
        assert class_of.tolist() == [0, 1, 0, 2]
        assert keys == (("XR1", BASE), ("XR2", BASE), ("XR1", REMOTE))
        assert keys[0][1] is BASE  # the first user's app object
        assert not class_of.flags.writeable

    def test_memo_is_invisible_to_equality_hash_repr_and_pickle(self):
        population, twin = mixed_devices(6), mixed_devices(6)
        pickled, text, digest = pickle.dumps(population), repr(population), hash(population)
        first = population.classes()
        assert population.classes() is first
        assert population == twin and hash(population) == digest == hash(twin)
        assert repr(population) == text
        assert pickle.dumps(population) == pickled
        restored = pickle.loads(pickled)
        assert restored == population
        assert restored.classes()[0].tolist() == first[0].tolist()

    def test_computed_once_across_candidates_and_analyze(self, monkeypatch):
        population = mixed_devices(12)
        results = []
        original = FleetPopulation.classes

        def spy(self):
            result = original(self)
            results.append(result)
            return result

        monkeypatch.setattr(FleetPopulation, "classes", spy)
        analyzer = FleetAnalyzer(population, n_edges=2)
        analyzer.candidates()
        analyzer.analyze()
        assert len(results) == 2
        assert results[0] is results[1]
