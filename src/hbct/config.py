"""Flat ``section.key = value`` configuration files for experiments.

The format is deliberately plain text so configs diff cleanly and need no
parser dependency.  ``parse(serialize(cfg)) == cfg`` holds for every valid
ExperimentConfig.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace

from .errors import InvalidArgumentError
from .scenarios import ExperimentConfig


def _fmt(value):
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def _coerce(key, text, like):
    try:
        if isinstance(like, (int, float)):
            return type(like)(text)
        if isinstance(like, (tuple, list)):
            return tuple(int(v) for v in text.split(",")) if text.strip() else ()
    except ValueError:
        raise InvalidArgumentError(
            f"{key}: expected {type(like).__name__} value(s), got {text!r}") from None
    return text


def serialize(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):  # a section of ``name.field`` keys
            lines += [f"{f.name}.{g.name} = {_fmt(getattr(value, g.name))}"
                      for g in fields(value)]
        else:
            lines.append(f"{f.name} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> ExperimentConfig:
    values, linenos = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"line {lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in values:
            raise InvalidArgumentError(f"lines {linenos[key]} and {lineno} both set {key}")
        values[key], linenos[key] = val, lineno

    defaults = ExperimentConfig()
    kwargs = {}
    for f in fields(defaults):
        like = getattr(defaults, f.name)
        if is_dataclass(like):
            kwargs[f.name] = replace(like, **{
                g.name: _coerce(key, values.pop(key), getattr(like, g.name))
                for g in fields(like) if (key := f"{f.name}.{g.name}") in values})
        elif f.name in values:
            kwargs[f.name] = _coerce(f.name, values.pop(f.name), like)
    if values:
        raise InvalidArgumentError(f"unknown config keys: {sorted(values)}")
    return replace(defaults, **kwargs)


def load(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise InvalidArgumentError(f"config {path} is not UTF-8 text: {e}") from None
    return parse(text)


def save(path, cfg: ExperimentConfig):
    with open(path, "w") as f:
        f.write(serialize(cfg))
