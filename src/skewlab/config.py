"""System configuration documents: parse, validate, emit, build.

A config is a JSON object with a base descriptor, a fiber descriptor, the
fiber interval endpoint, and analysis defaults.  Parsing keeps the normalized
document so emit(parse(x)) round-trips parameters bit-exactly (floats go
through repr).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NamedTuple

from .bases import CircleRotation, SymbolicShift
from .catalog import declared_classification, make_noinvattr, make_product
from .errors import ConfigError
from .fiber import FiberMap
from .registry import build_fiber
from .skew import SkewSystem

_BASE_VARIANTS = ("circle-rotation", "finite-orbit", "shift")
_DEFAULTS = {"grid": 4096, "tol": 1e-9, "depth": 1000, "steps": 100}


class SystemConfig(NamedTuple):
    base: dict
    fiber: dict
    a: float
    defaults: dict

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True, indent=2)


def _require(cond: bool, field: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"field {field}: {msg}")


def _positive(field: str, v, integral: bool = False):
    """v if it is a positive finite number, as an int when ``integral``.

    A bool, a non-finite number and, when ``integral``, a non-integral one
    are refused with a message naming the field.
    """
    ok = (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and 0 < v <= sys.float_info.max  # also refuses NaN
        and (not integral or v == int(v))
    )
    kind = "integer" if integral else "number"
    _require(ok, field, f"must be a positive {kind}, got {v!r}")
    return int(v) if integral else v


def parse_config(doc) -> SystemConfig:
    """Validate a config document (dict, JSON string, or path)."""
    if isinstance(doc, Path):
        doc = str(doc)
    if isinstance(doc, str):
        text = doc
        if not doc.lstrip().startswith("{"):
            p = Path(doc)
            if not p.exists():
                raise ConfigError(f"config file {doc!r} not found")
            text = p.read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "<root>", "config must be a JSON object")

    base = doc.get("base")
    _require(isinstance(base, dict), "base", "must be an object")
    variant = base.get("variant")
    _require(
        variant in _BASE_VARIANTS, "base.variant",
        f"must be one of {_BASE_VARIANTS}, got {variant!r}",
    )
    if variant == "circle-rotation":
        omega = base.get("omega")
        _require(
            isinstance(omega, (int, float)) and 0.0 < omega < 1.0,
            "base.omega", f"must be a number in (0, 1), got {omega!r}",
        )
    elif variant == "finite-orbit":
        preset = base.get("preset")
        _require(
            preset == "noinvattr", "base.preset",
            f"only the 'noinvattr' preset is supported, got {preset!r}",
        )
        window = _positive("base.window", base.get("window", 64), integral=True)
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

    a = _positive("a", doc.get("a", 1.0))

    defaults = dict(_DEFAULTS)
    user_defaults = doc.get("defaults", {})
    _require(isinstance(user_defaults, dict), "defaults", "must be an object")
    for k, v in user_defaults.items():
        _require(k in _DEFAULTS, f"defaults.{k}", "unknown analysis default")
        defaults[k] = _positive(f"defaults.{k}", v, integral=k != "tol")

    return SystemConfig(base=base, fiber=dict(fiber), a=float(a), defaults=defaults)


def _build_base(cfg: SystemConfig):
    v = cfg.base["variant"]
    if v == "circle-rotation":
        return CircleRotation(float(cfg.base["omega"]))
    if v == "shift":
        return SymbolicShift(cfg.base["sided"])
    return None  # finite-orbit presets build the whole system


def build_system(cfg: SystemConfig) -> SkewSystem:
    """Instantiate the configured skew system."""
    if cfg.base["variant"] == "finite-orbit":
        form = cfg.fiber.get("form", "noinvattr-split")
        if form != "noinvattr-split":
            raise ConfigError(
                "field fiber.form: finite-orbit preset systems use 'noinvattr-split'"
            )
        return make_noinvattr(cfg.base["window"])

    base = _build_base(cfg)
    form = cfg.fiber["form"]
    if form == "product":
        f_spec = cfg.fiber.get("f")
        g_spec = cfg.fiber.get("g")
        _require(isinstance(f_spec, dict), "fiber.f", "must be a fiber form object")
        _require(isinstance(g_spec, dict), "fiber.g", "must be a base function object")
        if cfg.base["variant"] != "circle-rotation" and g_spec.get("form") == "sin-squared":
            raise ConfigError(
                "field fiber.g: sin-squared base functions need a circle-rotation base"
            )
        return make_product(f_spec, g_spec, base, a=cfg.a, label="config-product")

    fm = build_fiber(cfg.fiber, cfg.a)

    def fiber_at(theta, _fm=fm) -> FiberMap:
        return _fm

    # A single form's range is f's own: its bound is gamma.
    classification, beta = declared_classification(fm, fm.gamma)
    return SkewSystem(
        base=base, fiber_at=fiber_at, a=cfg.a,
        classification=classification, beta=beta,
        label=f"config[{fm.form}]", product_parts=(fm.f, lambda theta: 1.0),
    )


def load_system(doc) -> tuple[SystemConfig, SkewSystem]:
    cfg = parse_config(doc)
    return cfg, build_system(cfg)
