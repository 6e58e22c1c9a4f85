"""Flat key=value config files shared by the CLI subcommands.

One assignment per line, ``#`` starts a comment. Values parse as int,
float, or bool when they look like one, else stay strings. Unknown keys
are a caller-side contract violation, reported with the offending key.
"""

from __future__ import annotations

import os


class ConfigError(ValueError):
    pass


def parse_config_text(text: str, source: str = "<config>") -> dict:
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        out[key] = _coerce(value)
    return out


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))


def _coerce(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def apply_overrides(defaults, overrides: dict):
    """Returns a dataclass copy updated with override keys; rejects unknowns."""
    from dataclasses import fields, replace

    known = {f.name for f in fields(defaults)}
    bad = [k for k in overrides if k not in known]
    if bad:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(bad))}")
    return replace(defaults, **overrides)


def default_seed() -> int:
    """Global seed default, overridable via the URBANAV_SEED environment variable."""
    raw = os.environ.get("URBANAV_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"URBANAV_SEED must be an integer, got {raw!r}") from None
