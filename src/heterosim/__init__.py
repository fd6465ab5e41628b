"""Deterministic simulator of heterogeneous self-reconfigurable modular robots.

Four platform kinds (Scout, Backbone, Active Wheel, passive blocks) dock
into organisms, share battery energy over a per-organism DC bus, exchange
wired and wireless messages, and run scripted scenarios on a fixed-phase
discrete-time engine.
"""

from .config import SimConfig
from .model import (
    BatteryModel,
    DockConnection,
    ModuleKind,
    ModuleSpec,
    ModuleState,
    Pose,
    Posture,
    World,
    connected_components,
    passive_spec,
    spec_for,
    total_compute,
)
from .docking import can_dock, dock, holding_power, undock
from .powerbus import (
    BusSolution,
    InsufficientSupply,
    NoSupplier,
    open_circuit_voltage,
    solve_bus,
    step_energy,
    total_available_energy,
)
from .commnet import wired_hops, wireless_broadcast
from .mechanics import (
    Joint,
    LiftQuery,
    actuation_duration,
    lift_feasible,
    organism_speed,
    set_posture,
)
from .scenario import EventLog, SensorMemory, dispatch
from .engine import Engine
from .experiments import run_assembly_experiment, run_rescue_experiment

__version__ = "0.1.0"
