"""Flat key=value config files shared by the CLI subcommands.

One assignment per line, ``#`` starts a comment. A value stays text until
``apply_overrides`` parses it with the type of the dataclass field its key
sets: int, float or str. An unknown key, a key a command-line flag owns, a
field of another type (a flat file cannot express a dict or a tuple), or a
value that does not parse raises ``ConfigError`` naming the key, as does
a key set twice. A config dataclass checks each field's range when it is
made (``check_field``), and a value out of range is reported under its key
too.
"""

from __future__ import annotations

import os
from dataclasses import fields, replace
from typing import get_type_hints


class ConfigError(ValueError):
    pass


class FieldError(ValueError):
    """A config field out of its range; ``keys`` are the fields the check reads, that one first."""

    def __init__(self, message: str, keys: tuple[str, ...]):
        super().__init__(message)
        self.keys = keys


def check_field(config, key: str, ok: bool, expected: str, *also: str) -> None:
    """Raises ``FieldError`` unless ``ok``: field ``key`` of ``config`` must be ``expected``.

    ``also`` names the other fields the condition reads.
    """
    if not ok:
        raise FieldError(f"{key} must be {expected}, got {getattr(config, key)!r}", (key, *also))


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: config key {key!r} is set twice")
        out[key] = value.strip()
    return out


def load_config(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def apply_overrides(defaults, overrides: dict[str, str], flag_keys: dict[str, str]):
    """A copy of the dataclass ``defaults`` with each key set from its raw text.

    ``flag_keys`` maps the keys a command-line flag owns to that flag; they
    are rejected, as are unknown keys and fields that are not int, float or str.
    A ``FieldError`` from the copy is raised again as a ``ConfigError``
    naming the first of its keys that ``overrides`` sets.
    """
    known = {f.name for f in fields(defaults)}
    bad = [k for k in overrides if k not in known]
    if bad:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(bad))}")
    types = get_type_hints(type(defaults))
    values = {}
    for key, raw in overrides.items():
        where = f"config key {key!r}"
        if key in flag_keys:
            raise ConfigError(f"{where} is set by {flag_keys[key]}, not in a config file")
        parse = types[key]
        if parse not in (int, float, str):
            raise ConfigError(f"{where} cannot be set in a flat config file")
        try:
            values[key] = parse(raw)
        except ValueError:
            raise ConfigError(f"{where}: {raw!r} does not parse as {parse.__name__}") from None
    try:
        return replace(defaults, **values)
    except FieldError as err:
        key = next((k for k in err.keys if k in overrides), None)
        if key is None:
            raise
        raise ConfigError(f"config key {key!r}: {err}") from None


def default_seed() -> int:
    """Global seed default, overridable via the URBANAV_SEED environment variable."""
    raw = os.environ.get("URBANAV_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"URBANAV_SEED must be an integer, got {raw!r}") from None
