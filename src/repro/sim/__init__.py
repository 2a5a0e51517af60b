"""Simulation engines, state management, memories, and system tasks."""

from .activity import ToggleProfile
from .batch_kernels import BatchKernels, batch_kernels_for
from .batch_sim import (LANE_CAPACITY, BatchCycleSim, LaneCapacityError,
                        LaneView)
from .cycle_sim import (CompiledNetlist, CycleSim, ForcedRestoreWarning,
                        compile_netlist)
from .events import EventScheduler, HaltSimulation, Region
from .event_sim import (EventSim, LabeledSymbolDomain, PlainXDomain,
                        ValueDomain)
from .memory import XMemory
from .planes import BoolPlanes, LanePlanes
from .state import SimState
from .tasks import (InitializeState, MonitorX, load_state_file,
                    parse_signal_list, save_state_file)

__all__ = [
    "ToggleProfile",
    "BatchKernels", "batch_kernels_for",
    "LANE_CAPACITY", "BatchCycleSim", "LaneCapacityError", "LaneView",
    "CompiledNetlist", "CycleSim", "ForcedRestoreWarning",
    "compile_netlist",
    "EventScheduler", "HaltSimulation", "Region",
    "EventSim", "PlainXDomain", "LabeledSymbolDomain", "ValueDomain",
    "BoolPlanes", "LanePlanes",
    "XMemory", "SimState",
    "MonitorX", "InitializeState",
    "parse_signal_list", "save_state_file", "load_state_file",
]
