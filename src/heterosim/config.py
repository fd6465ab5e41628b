"""Tunable simulation constants, shared by every subsystem.

Each field is a single named knob; the CLI exposes them one to one via
``--set name=value``. Values not measured on the real platforms are marked
"modeling constant" and chosen so the scenarios exercise the subsystem.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised when an override name or value is invalid."""


#: The longest tick, in seconds: one hour. Event times are ``tick * dt``, so
#: this keeps them finite up to tick 4e304, beyond any run.
MAX_DT_S = 3600.0


@dataclass(frozen=True)
class SimConfig:
    # Engine timing
    dt: float = 0.1                      # seconds per tick, at most MAX_DT_S
    # Arena geometry
    module_pitch: float = 0.105          # m, center-to-center distance of docked modules
    misalignment_tolerance: float = 0.05 # extra fraction of pitch tolerated when locking
    # Communication
    wireless_range: float = 2.0          # m, broadcast reach
    wireless_drop_probability: float = 0.0  # per-receiver loss; 0 keeps runs seed-free
    random_seed: int = 0                 # seeds the loss draws when used
    # Docking actuation (modeling constants; lock hardware is self-holding)
    lock_energy_j: float = 0.5           # one-shot cost of driving the lock motor
    dock_handshake_s: float = 2.0        # aligned -> locked transition time
    # Power bus
    current_limit_a: float = 8.0         # per-module export limiter
    recharge_max_a: float = 1.4          # 1C of the 1400 mAh pack
    recharge_enabled: bool = True
    # Consumer loads (modeling constants)
    idle_draw_w: float = 0.5             # electronics baseline per module
    drive_draw_w: float = 5.0            # extra draw while a motor runs
    # Mechanics
    gravity: float = 9.81                # m/s^2
    scout_max_torque_nm: float = 4.0     # conservative rating; override if needed

    @property
    def dock_reach_m(self) -> float:
        """Farthest center distance at which two ports still lock."""
        return self.module_pitch * (1.0 + self.misalignment_tolerance)

    def validate(self) -> None:
        if not 0 < self.dt <= MAX_DT_S:
            raise ConfigError(f"dt must be > 0 and at most {MAX_DT_S:g} s, got {self.dt}")
        positive = (
            "module_pitch", "wireless_range", "dock_handshake_s",
            "current_limit_a", "recharge_max_a", "gravity", "scout_max_torque_nm",
        )
        for name in positive:
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        nonnegative = ("misalignment_tolerance", "lock_energy_j", "idle_draw_w", "drive_draw_w")
        for name in nonnegative:
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.wireless_drop_probability <= 1.0:
            raise ConfigError("wireless_drop_probability must be in [0, 1]")

    def with_overrides(self, overrides: dict[str, object]) -> "SimConfig":
        """Return a copy with ``overrides`` applied and validated.

        String values are coerced to the field's type, so the CLI can pass
        ``--set`` pairs straight through.
        """
        known = {f.name: f for f in dataclasses.fields(self)}
        parsed: dict[str, object] = {}
        for name, value in overrides.items():
            if name not in known:
                raise ConfigError(f"unknown config key: {name!r}")
            ftype = known[name].type
            try:
                parsed[name] = _coerce(value, ftype)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {name}: {value!r} ({exc})") from exc
        cfg = dataclasses.replace(self, **parsed)
        cfg.validate()
        return cfg


def _coerce(value: object, ftype: str | type) -> object:
    name = ftype if isinstance(ftype, str) else ftype.__name__
    if name == "bool":
        if isinstance(value, bool):
            return value
        text = str(value).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    if name == "int":
        return int(str(value))
    if name == "float":
        return float(str(value))
    return value


DEFAULT_CONFIG = SimConfig()
