"""Deterministic fault injection and online repair.

See :mod:`repro.faults.schedule` for the declarative event model,
:mod:`repro.faults.injector` for live application and online routing
repair, and :mod:`repro.faults.report` for the degradation record a
faulted run returns.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "FaultInjector": ".injector",
    "FaultEventRecord": ".report",
    "FaultReport": ".report",
    "FaultWindow": ".report",
    "FAULT_SCHEMA": ".schedule",
    "FaultEvent": ".schedule",
    "FaultSchedule": ".schedule",
    "flaky": ".schedule",
    "link_down": ".schedule",
    "link_up": ".schedule",
    "switch_down": ".schedule",
})
