"""A JSON Schema validator for the keywords that the scenario and report
schemas use.

Every command validates its scenario file, and importing jsonschema to do
so was about a third of every command's start-up. This module
implements exactly the keywords of ``SCENARIO_SCHEMA`` and ``REPORT_SCHEMA``
(``type``, ``const``, ``enum``, ``oneOf``, ``required``, ``properties``,
``additionalProperties``, ``items``, ``minimum``, ``exclusiveMinimum``,
``maximum`` and ``minLength``) with the semantics of jsonschema 4.26 under
draft 2020-12: a bool is not a number, 41.0 is an integer, and True is not
1 for ``const`` and ``enum``. ``$schema`` is an annotation; any other
keyword raises ``NotImplementedError``, so a later schema edit cannot
silently weaken the check. ``best_match`` picks the error that
``jsonschema.exceptions.best_match`` picks and returns its message. The
tests hold both to jsonschema itself.
"""

from __future__ import annotations

import numbers
import operator
from typing import NamedTuple

_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}

_BOUNDS = {"minimum": (operator.lt, "is less than the minimum of"),
           "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
           "maximum": (operator.gt, "is greater than the maximum of")}


class _Error(NamedTuple):
    path: tuple        # keys and indices from the validated instance
    message: str
    weak: bool         # raised by oneOf, which other errors at its path outrank
    off_type: bool     # the instance fails (or the schema lacks) a "type"
    context: list      # oneOf: the errors of its subschemas


def _relevance(error: _Error) -> tuple:
    """jsonschema's ``relevance`` key."""
    return (-len(error.path), error.path, not error.weak, error.off_type)


def _is(instance, types) -> bool:
    return any(_TYPES[t](instance) for t in ([types] if isinstance(types, str) else types))


def _equal(a, b) -> bool:
    """JSON equality: True and 1 differ, 1.0 and 1 do not."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return a == b


def _errors(instance, schema: dict, path: tuple = ()):
    """The errors of instance against schema, in jsonschema's order."""
    off_type = not ("type" in schema and _is(instance, schema["type"]))
    obj = isinstance(instance, dict)
    for keyword, value in schema.items():
        msg = None
        if keyword == "type":
            if off_type:
                names = [value] if isinstance(value, str) else value
                msg = f"{instance!r} is not of type {', '.join(map(repr, names))}"
        elif keyword == "const":
            if not _equal(instance, value):
                msg = f"{value!r} was expected"
        elif keyword == "enum":
            if not any(_equal(instance, v) for v in value):
                msg = f"{instance!r} is not one of {value!r}"
        elif keyword == "oneOf":
            found = [list(_errors(instance, sub)) for sub in value]
            valid = [sub for sub, errs in zip(value, found) if not errs]
            if not valid:
                yield _Error(path, f"{instance!r} is not valid under any of the given "
                             "schemas", True, off_type, [e for errs in found for e in errs])
            elif len(valid) > 1:
                yield _Error(path, f"{instance!r} is valid under each of "
                             f"{', '.join(map(repr, valid[1:] + valid[:1]))}",
                             True, off_type, [])
        elif keyword in _BOUNDS:
            beyond, words = _BOUNDS[keyword]
            if _TYPES["number"](instance) and beyond(instance, value):
                msg = f"{instance!r} {words} {value!r}"
        elif keyword == "minLength":
            if isinstance(instance, str) and len(instance) < value:
                msg = f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif keyword == "required":
            for name in value if obj else ():
                if name not in instance:
                    yield _Error(path, f"{name!r} is a required property", False, off_type, [])
        elif keyword == "properties":
            for name, sub in value.items() if obj else ():
                if name in instance:
                    yield from _errors(instance[name], sub, path + (name,))
        elif keyword == "additionalProperties":
            extras = [k for k in instance if k not in schema.get("properties", {})] if obj else []
            if isinstance(value, dict):
                for name in extras:
                    yield from _errors(instance[name], value, path + (name,))
            elif not value and extras:
                names = sorted(extras, key=str)
                msg = (f"Additional properties are not allowed ({', '.join(map(repr, names))} "
                       f"{'was' if len(names) == 1 else 'were'} unexpected)")
        elif keyword == "items":
            for i, item in enumerate(instance if isinstance(instance, list) else ()):
                yield from _errors(item, value, path + (i,))
        elif keyword != "$schema":
            raise NotImplementedError(f"schema keyword {keyword!r} is not implemented")
        if msg is not None:
            yield _Error(path, msg, False, off_type, [])


def best_match(instance, schema: dict) -> str | None:
    """The message of the error of instance against schema that
    ``jsonschema.exceptions.best_match`` picks, or None when instance is
    valid: the most relevant error, and in place of a oneOf error the error
    of its subschemas that sorts first by relevance (the deepest), unless
    the first two tie."""
    best = max(_errors(instance, schema), key=_relevance, default=None)
    while best is not None and best.context:
        first, *rest = sorted(best.context, key=_relevance)[:2]
        if rest and _relevance(first) == _relevance(rest[0]):
            break
        best = first
    return None if best is None else best.message
