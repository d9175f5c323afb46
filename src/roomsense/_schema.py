"""Flat `key=value` view of the stage-config dataclasses.

A key is a field name; fields of a nested dataclass are prefixed with the
parent field's name (`TrainConfig.rf.n_trees` is `rf_n_trees`).  Types,
defaults and ranges stay in the dataclasses.  A field's `metadata["none"]`
names a word that parses to None besides "none".  The two errors of the
input boundary live here too: `ConfigError` for a bad config value and
`InputError` for a file no config could use.
"""

import math
import typing
from dataclasses import fields, is_dataclass


class ConfigError(ValueError):
    """Invalid configuration (bad key, bad value, or inconsistent settings)."""


class InputError(ValueError):
    """An unusable input file; carries the 1-based offending line number (None: the whole file)."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


def _leaves(node, prefix=""):
    """(config key, Field, holder) of each field of the dataclass or instance `node`
    that is not itself a dataclass, in declaration order; the holder has the field."""
    for f in fields(node):
        if is_dataclass(f.type):
            child = f.type if isinstance(node, type) else getattr(node, f.name)
            yield from _leaves(child, f"{prefix}{f.name}_")
        else:
            yield prefix + f.name, f, node


def field_specs(cls) -> dict:
    """Config key -> dataclass Field, in declaration order."""
    return {key: f for key, f, _ in _leaves(cls)}


def flatten(obj) -> dict:
    """Config key -> value, in declaration order; seeds derive from the run seed, so not kept."""
    return {key: getattr(holder, f.name) for key, f, holder in _leaves(obj) if f.name != "seed"}


def build(cls, values: dict, prefix="", **given):
    """A `cls` from config key -> value (else ConfigError); `given` wins, absent keys default."""
    kwargs = {}
    for f in fields(cls):
        if is_dataclass(f.type):
            kwargs[f.name] = build(f.type, values, f"{prefix}{f.name}_")
        elif prefix + f.name in values:
            kwargs[f.name] = values[prefix + f.name]
    try:
        return cls(**(kwargs | given))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_value(text: str, spec):
    """Parse config text as the annotated type of the Field `spec`."""
    return _parse(text.strip(), spec.type, ("none", spec.metadata.get("none", "none")))


def _parse(text, tp, none_words=("none",)):
    args = typing.get_args(tp)
    if tp is bool:
        if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
            raise ValueError(f"expected a boolean, got {text!r}")
        return text.lower() in ("true", "1", "yes")
    if typing.get_origin(tp) is tuple and args[-1] is Ellipsis:
        return tuple(_parse(part, args[0]) for part in text.split(";"))
    if typing.get_origin(tp) is tuple:
        parts = text.split(",")
        if len(parts) != len(args):
            raise ValueError(f"expected {len(args)} comma-separated values, got {text!r}")
        return tuple(_parse(part, t) for part, t in zip(parts, args))
    if args:  # a union: `X | None` or `int | str`
        if type(None) in args and text.lower() in none_words:
            return None
        try:
            return _parse(text, args[0])
        except ValueError:
            if str not in args:
                raise
            return text.lower()
    value = tp(text)
    if tp is float and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def format_value(value) -> str:
    """Config text of a value; `parse_value` reads it back unchanged."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        separator = ";" if value and isinstance(value[0], tuple) else ","
        return separator.join(format_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)
