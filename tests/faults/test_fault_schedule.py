"""FaultSchedule: validation, canonical form, and spec integration."""

import pytest

from repro.cli import main
from repro.core.engine import build_engine, drive
from repro.core.errors import ConfigError
from repro.experiments.spec import ScenarioSpec, Sweep
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    link_down,
    link_up,
    switch_down,
)


class TestEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent(kind="meteor_strike", cycle=10)

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent(kind="link_down", cycle=10, a=1)  # no b

    def test_irrelevant_fields_rejected(self):
        with pytest.raises(ConfigError):
            FaultEvent(kind="switch_down", cycle=10, switch=1, a=0, b=1)

    def test_negative_cycle_rejected(self):
        with pytest.raises(ConfigError):
            link_down(-1, 0, 1)

    def test_self_link_rejected(self):
        with pytest.raises(ConfigError):
            link_down(5, 2, 2)

    def test_flaky_window_must_extend_past_start(self):
        with pytest.raises(ConfigError):
            FaultEvent("flaky", 100, a=0, b=1, until=100, drop_p=0.5, seed=1)

    def test_flaky_drop_p_bounds(self):
        with pytest.raises(ConfigError):
            FaultEvent("flaky", 100, a=0, b=1, until=200, drop_p=1.5, seed=1)
        FaultEvent(  # boundary ok
            "flaky", 100, a=0, b=1, until=200, drop_p=0.0, seed=1
        )
        FaultEvent("flaky", 100, a=0, b=1, until=200, drop_p=1.0, seed=1)


class TestScheduleValidation:
    def test_link_up_requires_prior_down(self):
        with pytest.raises(ConfigError):
            FaultSchedule.of(link_up(100, 0, 1))

    def test_double_down_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule.of(link_down(100, 0, 1), link_down(200, 0, 1))

    def test_down_up_down_alternation_ok(self):
        FaultSchedule.of(
            link_down(100, 0, 1),
            link_up(200, 0, 1),
            link_down(300, 0, 1),
        )

    def test_switch_dies_only_once(self):
        with pytest.raises(ConfigError):
            FaultSchedule.of(switch_down(100, 1), switch_down(200, 1))

    def test_link_event_on_dead_switch_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule.of(switch_down(100, 1), link_down(200, 1, 4))

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule()
        assert FaultSchedule.of(link_down(1, 0, 1))


class TestCanonicalForm:
    def test_events_sorted_regardless_of_construction_order(self):
        a = FaultSchedule.of(link_down(300, 1, 4), link_down(100, 0, 1))
        b = FaultSchedule.of(link_down(100, 0, 1), link_down(300, 1, 4))
        assert a.events == b.events
        assert a.key == b.key

    def test_key_is_content_addressed(self):
        base = FaultSchedule.of(link_down(100, 0, 1))
        moved = FaultSchedule.of(link_down(101, 0, 1))
        norepair = FaultSchedule.of(link_down(100, 0, 1), repair=False)
        assert base.key != moved.key
        assert base.key != norepair.key
        assert len(base.key) == 16
        assert base.key == FaultSchedule.of(link_down(100, 0, 1)).key

    def test_round_trip(self):
        sched = FaultSchedule.of(
            link_down(300, 1, 4),
            link_up(900, 1, 4),
            FaultEvent("flaky", 50, a=0, b=1, until=250, drop_p=0.125, seed=9),
            switch_down(1200, 2),
            repair=False,
        )
        again = FaultSchedule.from_dict(sched.to_dict())
        assert again == sched
        assert again.key == sched.key

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            FaultSchedule.from_dict({"events": [], "mystery": 1})
        with pytest.raises(ConfigError):
            FaultSchedule.from_dict(
                {"events": [{"kind": "link_down", "cycle": 1, "a": 0,
                             "b": 1, "mystery": 2}]}
            )

    def test_first_cycle(self):
        sched = FaultSchedule.of(link_down(300, 1, 4), switch_down(80, 2))
        assert sched.first_cycle() == 80


class TestSpecIntegration:
    def test_healthy_spec_omits_faults_key(self):
        spec = ScenarioSpec(topology="paper", packets=10)
        assert "faults" not in spec.to_dict()

    def test_empty_schedule_normalises_to_none(self):
        healthy = ScenarioSpec(topology="paper", packets=10)
        explicit = ScenarioSpec(
            topology="paper", packets=10, faults={"events": []}
        )
        assert explicit.faults is None
        # Cache keys of healthy runs are untouched by the new field.
        assert explicit.key == healthy.key

    def test_dict_faults_converted_and_round_tripped(self):
        sched = FaultSchedule.of(link_down(300, 1, 4))
        spec = ScenarioSpec(
            topology="paper", packets=10, faults=sched.to_dict()
        )
        assert spec.faults == sched
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.key == spec.key

    def test_faulted_spec_changes_the_cache_key(self):
        healthy = ScenarioSpec(topology="paper", packets=10)
        faulted = ScenarioSpec(
            topology="paper",
            packets=10,
            faults=FaultSchedule.of(link_down(300, 1, 4)),
        )
        assert healthy.key != faulted.key

    def test_bad_faults_type_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(topology="paper", packets=10, faults="1:4@300")

    def test_faults_as_sweep_axis(self):
        specs = Sweep.grid(
            {"topology": "paper", "packets": 10},
            load=[0.2, 0.4],
            faults=[
                None,
                {"events": [{"kind": "link_down", "cycle": 300,
                             "a": 1, "b": 4}]},
            ],
        )
        assert len(specs) == 4
        faulted = [s for s in specs if s.faults is not None]
        assert len(faulted) == 2
        assert len({s.key for s in specs}) == 4


class TestInjectorTargets:
    """A schedule handed to the engine beside its spec (``repro run
    --fail-link``, ``build_engine(spec, faults)``) skips the spec's
    target check; the injector checks it against the built fabric
    when the run starts."""

    SPEC = ScenarioSpec(topology="mesh:3:3", packets=60)

    @pytest.mark.parametrize(
        "event, named",
        [(link_down(50, 0, 8), "0->8"), (switch_down(50, 9), "switch 9")],
        ids=["missing-link", "missing-switch"],
    )
    def test_missing_target_refused(self, event, named):
        _platform, engine = build_engine(
            self.SPEC, FaultSchedule.of(event)
        )
        with pytest.raises(ConfigError, match=named):
            drive(engine)

    def test_run_with_missing_fail_link_exits_2(self, capsys):
        code = main([
            "run", "--topology", "mesh:3:3", "--packets", "60",
            "--fail-link", "0:8@50",
        ])
        assert code == 2
        assert "0->8" in capsys.readouterr().err
