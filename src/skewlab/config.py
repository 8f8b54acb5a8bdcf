"""System configuration documents: parse, validate, build.

A config is a JSON object that describes a system: a base descriptor, a
fiber descriptor and the fiber interval endpoint.  The analysis (grids,
depths, step counts, tolerances) is set on the command line.  Parsing keeps
the normalized document, so ``json.dumps(cfg._asdict())`` parses back to an
equal config with every parameter bit-exact (floats go through repr).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .bases import CircleRotation, SymbolicShift
from .catalog import make_noinvattr, make_product
from .errors import ConfigError, check_number, file_error
from .registry import build_fiber, check_spec
from .skew import ProductFamily, SkewSystem

# Each base variant, and the fields its descriptor may carry.
_BASE_FIELDS = {"circle-rotation": ("variant", "omega"),
                "finite-orbit": ("variant", "preset", "window"), "shift": ("variant", "sided")}


class SystemConfig(NamedTuple):
    base: dict
    fiber: dict
    a: float


def _require(cond: bool, field: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"field {field}: {msg}")


def _only(obj: dict, prefix: str, known: tuple) -> None:
    for k in obj:
        _require(k in known, f"{prefix}{k}", f"unknown field (known: {known})")


def parse_config(doc) -> SystemConfig:
    """Validate a config document (dict, JSON string, or path), every number included."""
    if isinstance(doc, Path):
        doc = str(doc)
    if isinstance(doc, str):
        text = doc
        if not doc.lstrip().startswith("{"):
            p = Path(doc)
            if not p.exists():
                raise ConfigError(f"config file {doc!r} not found")
            try:
                text = p.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise file_error("read config file", doc, exc) from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError("JSON nests too deeply to parse") from None
    _require(isinstance(doc, dict), "<root>", "config must be a JSON object")
    _only(doc, "", ("base", "fiber", "a"))

    base = doc.get("base")
    _require(isinstance(base, dict), "base", "must be an object")
    variant = base.get("variant")
    _require(
        variant in _BASE_FIELDS, "base.variant",
        f"must be one of {tuple(_BASE_FIELDS)}, got {variant!r}",
    )
    _only(base, "base.", _BASE_FIELDS[variant])
    if variant == "circle-rotation":
        check_number("field base.omega", base.get("omega"), "a number in (0, 1)")
    elif variant == "finite-orbit":
        preset = base.get("preset")
        _require(
            preset == "noinvattr", "base.preset",
            f"only the 'noinvattr' preset is supported, got {preset!r}",
        )
        window = check_number("field base.window", base.get("window", 64), "a positive integer")
        base = {"variant": variant, "preset": preset, "window": window}
    else:
        sided = base.get("sided")
        _require(
            sided in ("one", "two"), "base.sided",
            f"must be 'one' or 'two', got {sided!r}",
        )

    fiber = doc.get("fiber")
    _require(isinstance(fiber, dict), "fiber", "must be an object")
    _require("form" in fiber, "fiber.form", "is required")

    a = check_number("field a", doc.get("a", 1.0))

    if variant == "finite-orbit":
        _require(a == 1.0, "a", "must be 1.0 over a finite-orbit base, whose preset "
                 f"fibres live on [0, 1], got {a!r}")
        _require(fiber["form"] == "noinvattr-split", "fiber.form",
                 "finite-orbit preset systems use 'noinvattr-split'")
        _only(fiber, "fiber.", ("form",))
    elif fiber["form"] == "product":
        _only(fiber, "fiber.", ("form", "f", "g"))
        check_spec("fiber", fiber.get("f"), "fiber.f")
        check_spec("base function", fiber.get("g"), "fiber.g")
        _require(variant == "circle-rotation" or fiber["g"]["form"] != "sin-squared",
                 "fiber.g", "sin-squared base functions need a circle-rotation base")
    else:
        check_spec("fiber", fiber, "fiber")

    return SystemConfig(base=base, fiber=dict(fiber), a=float(a))


def build_system(cfg: SystemConfig) -> SkewSystem:
    """Instantiate the configured skew system."""
    variant = cfg.base["variant"]
    if variant == "finite-orbit":  # the preset builds the whole system
        return make_noinvattr(cfg.base["window"])
    if variant == "circle-rotation":
        base = CircleRotation(float(cfg.base["omega"]))
    else:
        base = SymbolicShift(cfg.base["sided"])
    if cfg.fiber["form"] == "product":
        return make_product(cfg.fiber["f"], cfg.fiber["g"], base, a=cfg.a,
                            label="config-product")

    fm = build_fiber(cfg.fiber, cfg.a)
    return SkewSystem(base=base, fiber_at=ProductFamily(fm), a=cfg.a, label=f"config[{fm.form}]")


def load_system(doc) -> SkewSystem:
    return build_system(parse_config(doc))
