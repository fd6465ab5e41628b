"""Tunable simulation constants, shared by every subsystem, and the base of
the records, :class:`Record`.

Each field is a single named knob; the CLI exposes them one to one via
``--set name=value``. Values not measured on the real platforms are marked
"modeling constant" and chosen so the scenarios exercise the subsystem.
"""
from __future__ import annotations

import math
from operator import attrgetter


class Record:
    """Fields in annotation order (of the class body, or of the subclass's own
    ``__init__``), a repr of them, equality only within one class, and
    ``replace``, which builds through the constructor and so checks again.
    The inherited ``__init__`` copies each list or dict default and calls
    ``__post_init__``. A ``frozen=True`` record refuses assignment and
    deletion and hashes by its fields; any other record is unhashable."""

    def __init_subclass__(cls, frozen: bool = False) -> None:
        annotations = (vars(cls).get("__init__") or cls).__annotations__
        cls._fields = tuple(name for name in annotations if name != "return")
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        cls._values = attrgetter(*cls._fields)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = Record._refuse
            cls.__hash__ = lambda self: hash(self._values(self))

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls = type(self)
        given = dict(zip(cls._fields, args), **kwargs)
        # Too many arguments or one given twice; an unknown name or a field left out.
        if (len(given) < len(args) + len(kwargs)
                or (given.keys() ^ cls._fields) - cls._defaults.keys()):
            raise TypeError(f"{cls.__name__} takes {', '.join(cls._fields)}; got {args}, {kwargs}")
        for name in cls._fields:
            if name not in given:
                value = cls._defaults[name]
                given[name] = value.copy() if type(value) in (list, dict) else value
            object.__setattr__(self, name, given[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; a subclass that needs no checks keeps this."""

    def __repr__(self) -> str:
        pairs = map("{}={!r}".format, self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def replace(self, **changes: object) -> Record:
        """A copy with ``changes`` applied, checked as a new record is."""
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))

    def _refuse(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


class ConfigError(ValueError):
    """Raised when an override name or value is invalid."""


#: The longest tick, in seconds: one hour. Event times are ``tick * dt``, so
#: this keeps them finite up to tick 4e304, beyond any run.
MAX_DT_S = 3600.0


class SimConfig(Record, frozen=True):
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

    def __post_init__(self) -> None:
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
        """Return a copy with ``overrides`` applied, checked as every config is.

        String values are coerced to the field's type, so the CLI can pass
        ``--set`` pairs straight through.
        """
        types = SimConfig.__annotations__
        parsed: dict[str, object] = {}
        for name, value in overrides.items():
            if name not in types:
                raise ConfigError(f"unknown config key: {name!r}")
            try:
                parsed[name] = _coerce(value, types[name])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {name}: {value!r} ({exc})") from exc
        return self.replace(**parsed)


def _coerce(value: object, name: str) -> object:
    if name == "bool":  # a JSON true or false reads as "True" or "False"
        text = str(value).strip().lower()
        if text in ("1", "true", "yes", "on"):
            return True
        if text in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    if name == "int":
        return int(str(value))
    return float(str(value))


DEFAULT_CONFIG = SimConfig()
