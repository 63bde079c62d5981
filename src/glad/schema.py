"""The one reader of JSON objects into configs and dataset specs."""

import dataclasses
import typing


def _fits(hint, value) -> bool:
    """Whether a JSON value has the type a field is annotated with: any
    number for a float, a list (of the tuple's length, if fixed) for a
    tuple, and otherwise exactly the type, so a bool is not an int."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return (isinstance(value, (list, tuple))
                and (args[-1] is Ellipsis or len(value) == len(args))
                and all(_fits(args[0], v) for v in value))
    return type(value) in ((int, float) if hint is float else (hint,))


def from_json(cls, doc, where: str = ""):
    """cls(**doc) for a JSON object whose every key is a field of cls and
    whose every value has its field's type (an object for a nested
    dataclass); lists become tuples. Otherwise raises TypeError naming the
    key as a dotted path after `where`; the constructor's ValueError gets
    `where` too."""
    at = f"{where}: " if where else ""
    if not isinstance(doc, dict):
        raise TypeError(f"{at}expected an object, got {doc!r}")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in doc.items():
        name = f"{where}.{key}" if where else key
        hint = hints.get(key)
        if hint is None:
            raise TypeError(f"{name}: unknown field")
        if dataclasses.is_dataclass(hint):
            value = from_json(hint, value, name)
        elif not _fits(hint, value):
            kind = str(hint).replace("tuple", "list") if typing.get_origin(hint) else hint.__name__
            raise TypeError(f"{name}: expected {kind}, got {value!r}")
        values[key] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**values)
    except ValueError as e:
        raise ValueError(f"{at}{e}") from e
