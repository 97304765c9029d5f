"""The generic state walker: one declaration per class drives both
capture and restore.

A walked class declares ``__rebuilt__``: the fields a checkpoint must
*not* carry as plain values — wiring and construction config the
restored platform rebuilds from its spec, caches, and the few fields
:mod:`~repro.checkpoint.capture` / :mod:`~repro.checkpoint.restore`
map by hand (flit identities, positional lists).  Declarations union
along the MRO, so a subclass lists only its own skipped fields.

**Every other field is state**: each ``__slots__`` entry across the
MRO, or ``vars(obj)`` for plain classes.  Coverage therefore holds by
construction — a new field is captured and restored with no further
edit, or fails the first snapshot loudly.

A record keys each field by its attribute name with leading
underscores stripped (``_last_send_cycle`` -> ``last_send_cycle``).
int/str/bool/float/None values are stored as they are; lists and
dicts of plain values are copied, never aliased; objects whose class
declares ``__rebuilt__`` (alone or as list elements) are walked into
nested records.  Anything else raises :class:`CheckpointError` naming
``Class.field``.
"""

from typing import Any, Dict, Tuple

from .errors import CheckpointCorruptError, CheckpointError

__all__ = ["capture", "restore_into"]

_SCALARS = frozenset((int, str, bool, float, type(None)))

#: class (plus instance attribute names for plain classes) ->
#: (field names, record keys, record builder).
_PLANS: Dict[Any, Tuple[tuple, tuple, Any]] = {}


def _walked(value) -> bool:
    return hasattr(type(value), "__rebuilt__")


def _builder(names: tuple, keys: tuple):
    """Compile one plan's record builder: a single dict display, so a
    capture costs one attribute load and one type test per field —
    what a hand-written mirror costs — instead of a generic loop."""
    items = "".join(
        f"{key!r}: v if type(v := obj.{name}) in _SCALARS"
        f" else _copy(v, obj, {name!r}),\n"
        for name, key in zip(names, keys)
    )
    namespace = {"_SCALARS": _SCALARS, "_copy": _copy}
    exec(f"def build(obj):\n return {{\n{items}}}", namespace)
    return namespace["build"]


def _build_plan(cls, attrs) -> Tuple[tuple, tuple, Any]:
    skip = set()
    names = []
    for klass in reversed(cls.__mro__):
        skip.update(vars(klass).get("__rebuilt__", ()))
        slots = vars(klass).get("__slots__", ())
        names.extend([slots] if isinstance(slots, str) else slots)
    names.extend(attrs or ())
    names = tuple(
        name for name in names
        if name not in skip and name not in ("__dict__", "__weakref__")
    )
    keys = tuple(name.lstrip("_") for name in names)
    if len(set(keys)) != len(keys):
        raise CheckpointError(
            f"{cls.__name__} has state fields whose names differ only"
            f" in leading underscores: {names}"
        )
    return names, keys, _builder(names, keys)


def _plan(obj) -> Tuple[tuple, tuple, Any]:
    cls = type(obj)
    plan = _PLANS.get(cls)  # slotted classes are keyed by class alone
    if plan is not None:
        return plan
    attrs = getattr(obj, "__dict__", None)
    key = cls if attrs is None else (cls, *attrs)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _build_plan(cls, attrs)
    return plan


def _copy(value, owner, name: str):
    """A fresh JSON-plain copy of field ``name`` of ``owner``.  Lists
    are homogeneous: the first element decides whether the rest are
    copied flat or walked."""
    kind = type(value)
    if kind is list:
        if not value or type(value[0]) in _SCALARS:
            return value[:]
        if _walked(value[0]):
            return [capture(item) for item in value]
        return [_copy(item, owner, name) for item in value]
    if kind is dict:
        return {
            key: item if type(item) in _SCALARS
            else _copy(item, owner, name)
            for key, item in value.items()
        }
    if _walked(value):
        return capture(value)
    if kind in _SCALARS:
        return value
    raise CheckpointError(
        f"cannot checkpoint {type(owner).__name__}.{name}: a"
        f" {kind.__name__} is not plain state; declare the field in"
        f" `__rebuilt__` and rebuild it on restore"
    )


def capture(obj) -> Dict[str, Any]:
    """The state record of ``obj``: every field not in ``__rebuilt__``."""
    plan = _PLANS.get(type(obj)) or _plan(obj)
    return plan[2](obj)


def restore_into(obj, record: Dict[str, Any], path: str) -> None:
    """Overlay ``record`` onto ``obj``, the fresh platform's object.

    Lists restore in place (waiter lists and grant counters may be
    aliased) from a copy, so one record can be restored many times;
    nested objects restore into the objects the platform already
    built.  A missing key raises :class:`CheckpointCorruptError`
    naming its path, e.g. ``nis[3].credits``.
    """
    names, keys, _build = _plan(obj)
    for name, key in zip(names, keys):
        try:
            value = record[key]
        except KeyError:
            raise CheckpointCorruptError(
                f"checkpoint state is missing {path}.{key}"
            ) from None
        if type(value) in _SCALARS:
            setattr(obj, name, value)
            continue
        current = getattr(obj, name)
        if _walked(current):
            restore_into(current, value, f"{path}.{key}")
        elif type(current) is list and current and _walked(current[0]):
            pairs = zip(current, value, strict=True)
            for i, (item, item_record) in enumerate(pairs):
                restore_into(item, item_record, f"{path}.{key}[{i}]")
        elif type(current) is list:
            current[:] = _copy(value, obj, name)
        elif type(current) is dict:
            current.clear()
            current.update(_copy(value, obj, name))
        else:
            setattr(obj, name, _copy(value, obj, name))
