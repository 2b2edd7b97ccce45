"""Flat ``section.key = value`` configuration files for experiments.

The format is deliberately plain text so configs diff cleanly and need no
parser dependency.  ``parse(serialize(cfg)) == cfg`` holds for every valid
ExperimentConfig.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import InvalidArgumentError
from .scenarios import ExperimentConfig

_SECTIONS = ("manifold", "alignment", "clip", "train", "dataset", "scenario")


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
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        for name in obj.__dataclass_fields__:
            lines.append(f"{section}.{name} = {_fmt(getattr(obj, name))}")
    lines.append(f"output_dir = {cfg.output_dir}")
    lines.append(f"seeds = {_fmt(cfg.seeds)}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgumentError(f"line {lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key] = val

    defaults = ExperimentConfig()
    kwargs = {}
    for section in _SECTIONS:
        sec_default = getattr(defaults, section)
        sec_kwargs = {}
        for name in sec_default.__dataclass_fields__:
            key = f"{section}.{name}"
            if key in values:
                sec_kwargs[name] = _coerce(key, values.pop(key), getattr(sec_default, name))
        kwargs[section] = replace(sec_default, **sec_kwargs)
    output_dir = values.pop("output_dir", defaults.output_dir)
    seeds = (_coerce("seeds", values.pop("seeds"), defaults.seeds)
             if "seeds" in values else defaults.seeds)
    if values:
        raise InvalidArgumentError(f"unknown config keys: {sorted(values)}")
    return ExperimentConfig(output_dir=output_dir, seeds=seeds, **kwargs)


def load(path) -> ExperimentConfig:
    with open(path) as f:
        return parse(f.read())


def save(path, cfg: ExperimentConfig):
    with open(path, "w") as f:
        f.write(serialize(cfg))
