"""Extension — offered load vs accepted throughput and latency.

Not a figure in the DATE 2005 slides, but the canonical NoC
characterisation the platform exists to produce quickly: sweep the
per-generator offered load across the saturation point of the shared
middle links and record accepted throughput and latency.

With the overlap route case, two 45%-class flows share each middle
link, so the network saturates when the *per-generator* load crosses
~0.5: below it accepted == offered and latency is flat; above it
accepted throughput flattens at the link ceiling and latency jumps to
its queue-bound maximum.  The paper's choice of 45% per TG (90% link
load) sits just under this knee — this bench shows the knee exists
exactly where that reading implies.

The sweep itself is declared through ``repro.experiments``: one
:func:`Sweep.grid` over the load axis, executed by the
:class:`SweepRunner` (the bench is also an in-tree example of porting
a hand-rolled loop onto the runner — the metric readout comes from the
shared ``ScenarioResult`` record instead of ad-hoc receptor walks).
"""

import pytest

from benchmarks.conftest import emit
from repro.experiments import ScenarioSpec, Sweep, SweepRunner, render_table

pytestmark = pytest.mark.perf

LOADS = (0.15, 0.30, 0.45, 0.55, 0.70, 0.90)
PACKETS = 1200
LENGTH = 8

BASE = ScenarioSpec(
    traffic="uniform",
    length=LENGTH,
    packets=PACKETS,
    routing="overlap",
    seed=7,
)

#: Generators on the paper platform (normalises accepted throughput).
N_TGS = 4


@pytest.fixture(scope="module")
def series():
    """Accepted throughput, latency and congestion per offered load."""
    out = {}
    for result in SweepRunner().run(Sweep.grid(BASE, load=LOADS)):
        metrics = result.metrics
        assert metrics["completed"]
        out[result.spec.load] = {
            "accepted": metrics["accepted_flits_per_cycle"] / N_TGS,
            "latency": metrics["mean_latency"],
            "congestion": metrics["congestion_rate"],
        }
    return out


def test_saturation_sweep(series):
    emit(
        "saturation_sweep",
        render_table(
            [
                {
                    "offered load/TG": f"{load:.2f}",
                    "accepted flits/cyc/TG": f"{r['accepted']:.3f}",
                    "mean latency": f"{r['latency']:.1f}",
                    "congestion": f"{r['congestion']:.4f}",
                }
                for load, r in series.items()
            ]
        ),
    )

    # Below the knee: the network accepts what is offered (within the
    # interval quantisation) and latency stays near zero-load.
    for load in (0.15, 0.30, 0.45):
        assert series[load]["accepted"] == pytest.approx(
            load, abs=0.035
        )
    assert series[0.30]["latency"] < series[0.45]["latency"] * 1.5

    # Above the knee: accepted throughput stops tracking offered load
    # (two flows share a middle link: ceiling ~0.5 per TG).
    assert series[0.90]["accepted"] < 0.62
    assert series[0.90]["accepted"] < series[0.90]["congestion"] + 1.0

    # Latency blows up past saturation relative to the paper point.
    assert series[0.70]["latency"] > 2 * series[0.45]["latency"]
    assert series[0.90]["latency"] >= series[0.70]["latency"] * 0.9


def test_saturation_knee_position(series):
    """The knee sits between 45% and 55% per generator, matching the
    two-flows-per-link reading of the paper's setup."""
    below, above = series[0.45], series[0.55]
    # 45% is still (nearly) loss-free in throughput terms...
    assert below["accepted"] == pytest.approx(0.45, abs=0.035)
    # ...while 55% already falls measurably short of its offer.
    assert above["accepted"] < 0.53
