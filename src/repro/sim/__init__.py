"""The simulated GPU.

A functional SIMT machine in the Kepler mould: 32-lane warps with a
divergence token stack (``SSY``/``SYNC``/``PBK``/``BRK``), CTA-wide
barriers, shared/local/global/constant/texture memory spaces, per-warp
32-byte-line coalescing, optional L1/L2 cache models, and a flat
issue/transaction cycle count folded from each completed launch's own
statistics (:func:`repro.sim.scheduler.flat_cycles`).

Public surface:

* :class:`repro.sim.device.Device` — memory allocation, host↔device
  copies, program loading, kernel launch.
* :class:`repro.sim.launch.Dim3` — grid/block dimensions.
* :class:`repro.sim.executor.KernelStats` — per-launch statistics.
* :exc:`repro.sim.errors.DeviceFault` — the simulated equivalent of an
  ``Xid`` error / CUDA "unspecified launch failure" (bad addresses, stack
  overflows), used by the error-injection study to detect crashes.
"""

from repro.sim.device import Device
from repro.sim.errors import DeviceFault, SimulationError, HangDetected
from repro.sim.launch import Dim3
from repro.sim.executor import KernelStats

__all__ = [
    "Device",
    "DeviceFault",
    "SimulationError",
    "HangDetected",
    "Dim3",
    "KernelStats",
]
