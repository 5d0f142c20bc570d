"""Multi-device placement: topology, shard partitioning, exchange accounting.

The simulator models N devices the way it models one: as an accounting
overlay on a bit-deterministic computation.  A multi-device run executes
*exactly* the same kernels in exactly the same order as the single-device
run — vertex values, iteration counts, and convergence are untouched — while
the hardware model splits each iteration's modeled kernel time across the
devices that own the processed shards and charges a bulk-synchronous
value-exchange step at every iteration boundary (Gunrock's multi-GPU BSP
model: compute on each device, then exchange the updated remote values over
the interconnect before the next iteration).

Layout:

- :class:`DeviceTopology` — N simulated devices, each a
  :class:`~repro.gpu.spec.GPUSpec`, linked by one
  :class:`~repro.gpu.spec.PCIeSpec` interconnect.
- :class:`Placement` — a deterministic unit→device partition (units are
  shards for the CuSha engines, Gauss-Seidel chunks for VWC).  ``block``
  assigns contiguous runs, ``stride`` round-robins;
  :meth:`Placement.without_device` is the repartition step the resilience
  supervisor applies on device loss.
- :class:`MultiDeviceRun` — the per-run accumulator engines drive: per
  iteration it splits the modeled kernel time across devices by static work
  share, prices the exchange step through
  :func:`repro.gpu.pcie.transfer_ms`, and publishes the per-device spans
  and ``placement.*`` metrics.

Exchange-byte model: when unit ``i``'s vertices update, every device other
than ``i``'s owner that holds an edge sourced from unit ``i`` must receive
the new values — so unit ``i``'s *remote slot count* is the number of edges
``(u, v)`` with ``u`` in unit ``i`` whose destination unit lives on another
device, and an iteration's exchange traffic is ``value_bytes`` times the
remote slots of the units that wrote back this iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.gpu.pcie import transfer_ms
from repro.gpu.spec import GTX780, GPUSpec, PCIeSpec

__all__ = [
    "DeviceTopology",
    "Placement",
    "MultiDeviceRun",
    "remote_unit_counts",
    "resolve_placement",
    "multi_device_run",
]


@dataclass(frozen=True)
class DeviceTopology:
    """N simulated devices joined by one interconnect transfer model."""

    devices: tuple[GPUSpec, ...]
    interconnect: PCIeSpec = PCIeSpec()

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("a DeviceTopology needs at least one device")

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @classmethod
    def uniform(
        cls, n: int, spec: GPUSpec = GTX780, pcie: PCIeSpec | None = None
    ) -> "DeviceTopology":
        """``n`` identical devices (the common symmetric-node shape)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(
            devices=(spec,) * n,
            interconnect=pcie if pcie is not None else PCIeSpec(),
        )


@dataclass(frozen=True)
class Placement:
    """A deterministic unit→device assignment.

    ``assignment[i]`` is the device owning unit ``i`` (a shard for the
    CuSha engines, a Gauss-Seidel vertex chunk for VWC).  Hashable and
    frozen so it can ride a :class:`~repro.frameworks.base.RunConfig` and
    participate in service batch keys.
    """

    num_devices: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if any(d < 0 or d >= self.num_devices for d in self.assignment):
            raise ValueError(
                f"assignment values must be in [0, {self.num_devices})"
            )

    @property
    def num_units(self) -> int:
        return len(self.assignment)

    @classmethod
    def block(cls, num_units: int, num_devices: int) -> "Placement":
        """Contiguous runs of units per device (Gunrock's default split)."""
        if num_units < 0 or num_devices < 1:
            raise ValueError("need num_units >= 0 and num_devices >= 1")
        per = -(-num_units // num_devices) if num_units else 1
        return cls(
            num_devices=num_devices,
            assignment=tuple(
                min(i // per, num_devices - 1) for i in range(num_units)
            ),
        )

    @classmethod
    def stride(cls, num_units: int, num_devices: int) -> "Placement":
        """Round-robin assignment (balances skewed unit sizes)."""
        if num_units < 0 or num_devices < 1:
            raise ValueError("need num_units >= 0 and num_devices >= 1")
        return cls(
            num_devices=num_devices,
            assignment=tuple(i % num_devices for i in range(num_units)),
        )

    def device_of(self) -> np.ndarray:
        """The assignment as an int64 array."""
        return np.asarray(self.assignment, dtype=np.int64)

    def units_on(self, device: int) -> np.ndarray:
        """Unit ids owned by ``device``."""
        return np.flatnonzero(self.device_of() == device)

    def without_device(self, dead: int) -> "Placement":
        """The repartitioned placement after losing ``dead``.

        Survivors are renumbered to ``0..num_devices-2`` preserving order,
        and the dead device's units are redistributed round-robin across
        the survivors in unit order — deterministic, so a recovered run
        replays identically.
        """
        if self.num_devices < 2:
            raise ValueError("cannot remove the last device")
        if dead < 0 or dead >= self.num_devices:
            raise ValueError(f"no device {dead} in a {self.num_devices}-way "
                             "placement")
        survivors = [d for d in range(self.num_devices) if d != dead]
        renumber = {d: i for i, d in enumerate(survivors)}
        out = []
        spill = 0
        for d in self.assignment:
            if d == dead:
                out.append(spill % len(survivors))
                spill += 1
            else:
                out.append(renumber[d])
        return Placement(
            num_devices=self.num_devices - 1, assignment=tuple(out)
        )


def remote_unit_counts(
    src_unit: np.ndarray, dst_unit: np.ndarray, placement: Placement
) -> np.ndarray:
    """Per-unit remote slot counts under ``placement``.

    ``src_unit[e]`` / ``dst_unit[e]`` are the units holding edge ``e``'s
    source vertex and its entry (destination side).  An edge is *remote*
    when the two live on different devices; the count is attributed to the
    source unit, because that is the unit whose write-back pushes the new
    value across the interconnect.
    """
    dev = placement.device_of()
    cross = dev[src_unit] != dev[dst_unit]
    return np.bincount(
        src_unit[cross], minlength=placement.num_units
    ).astype(np.int64)


def resolve_placement(config, num_units: int) -> Placement:
    """The concrete placement a run with ``config.devices > 1`` executes.

    An explicit ``config.placement`` whose assignment covers ``num_units``
    is used verbatim; otherwise (no placement given, or one built for a
    different engine's unit structure — e.g. after an engine-ladder
    fallback) a deterministic block partition over ``config.devices``
    devices stands in.
    """
    placement = config.placement
    if placement is not None and placement.num_units == num_units:
        return placement
    return Placement.block(num_units, config.devices)


class MultiDeviceRun:
    """Per-run multi-device accounting (engines drive it per iteration).

    Engines call :meth:`note_processed` / :meth:`note_updated` while they
    sweep, then swap the iteration's modeled time through
    :meth:`iteration_time`; nothing here ever touches vertex values, so the
    N-device result is bit-exact against single-device by construction.
    """

    def __init__(
        self,
        placement: Placement,
        *,
        weights: np.ndarray,
        remote_counts: np.ndarray,
        value_bytes: int,
        pcie: PCIeSpec,
    ) -> None:
        self.placement = placement
        self.num_devices = placement.num_devices
        self._dev = placement.device_of()
        self._weights = np.maximum(
            np.asarray(weights, dtype=np.float64), 1.0
        )
        self._remote = np.asarray(remote_counts, dtype=np.int64)
        self._value_bytes = int(value_bytes)
        self._pcie = pcie
        self._dev_weight_all = np.bincount(
            self._dev, weights=self._weights, minlength=self.num_devices
        )
        # Totals surfaced in RunResult / telemetry.
        self.exchange_bytes = 0
        self.exchange_ms = 0.0
        self.single_device_ms = 0.0
        self.device_busy_ms = np.zeros(self.num_devices, dtype=np.float64)
        self.last_exchange_bytes = 0
        self.last_exchange_ms = 0.0
        # Per-iteration scratch (reset by iteration_time).
        self._proc: list[np.ndarray] = []
        self._upd: list[np.ndarray] = []

    # -- per-iteration notes -------------------------------------------
    def note_processed(self, units: np.ndarray) -> None:
        """Units this iteration's sweep processed (frontier-gated paths)."""
        if len(units):
            self._proc.append(np.asarray(units, dtype=np.int64))

    def note_updated(self, units: np.ndarray) -> None:
        """Units whose vertices updated (their remote slots exchange)."""
        if len(units):
            self._upd.append(np.asarray(units, dtype=np.int64))

    # -- iteration boundary --------------------------------------------
    def iteration_time(self, t_ms: float) -> float:
        """The multi-device iteration time replacing single-device ``t_ms``.

        Bulk-synchronous model: the per-device compute share is ``t_ms``
        split proportionally to the static work of the units each device
        processed, the iteration takes the slowest device, and the
        exchange step (priced through :func:`transfer_ms`) runs after the
        barrier.  Consumes and clears the iteration's notes.
        """
        if self._proc:
            units = np.concatenate(self._proc)
            dev_w = np.bincount(
                self._dev[units], weights=self._weights[units],
                minlength=self.num_devices,
            )
        else:
            dev_w = self._dev_weight_all
        total_w = float(dev_w.sum())
        if total_w > 0:
            per_dev = t_ms * dev_w / total_w
        else:  # no processed work to split: charge device 0
            per_dev = np.zeros(self.num_devices, dtype=np.float64)
            per_dev[0] = t_ms
        if self._upd:
            upd = np.concatenate(self._upd)
            ex_bytes = int(self._remote[upd].sum()) * self._value_bytes
        else:
            ex_bytes = 0
        ex_ms = transfer_ms(ex_bytes, self._pcie) if ex_bytes else 0.0
        self.device_busy_ms += per_dev
        self.exchange_bytes += ex_bytes
        self.exchange_ms += ex_ms
        self.single_device_ms += t_ms
        self.last_exchange_bytes = ex_bytes
        self.last_exchange_ms = ex_ms
        self._proc.clear()
        self._upd.clear()
        return float(per_dev.max()) + ex_ms

    # -- end of run -----------------------------------------------------
    def publish(self, tracer, *, engine: str = "") -> None:
        """Per-device telemetry spans plus the ``placement.*`` metrics."""
        m = tracer.metrics
        m.gauge("placement.devices").set(self.num_devices)
        m.counter("placement.exchange_bytes").inc(self.exchange_bytes)
        m.counter("placement.exchange_ms").inc(self.exchange_ms)
        m.counter("placement.single_device_ms").inc(self.single_device_ms)
        for d in range(self.num_devices):
            tracer.emit(
                f"device-{d}", "device",
                model_ms=float(self.device_busy_ms[d]),
                device=d, engine=engine,
                units=int((self._dev == d).sum()),
            )


def multi_device_run(
    config,
    num_units: int,
    *,
    weights: np.ndarray,
    src_unit: np.ndarray,
    dst_unit: np.ndarray,
    value_bytes: int,
    pcie: PCIeSpec,
) -> MultiDeviceRun | None:
    """Build the per-run accumulator, or ``None`` for single-device runs.

    The one call every sharded engine makes once its unit structure is
    known: resolves the placement (explicit or deterministic block),
    derives the remote slot counts from the edge endpoints, and returns
    the armed :class:`MultiDeviceRun`.
    """
    if config.devices <= 1:
        return None
    if num_units < 1:
        raise ConfigError(
            "multi-device execution needs at least one shard/chunk",
            knob="devices",
        )
    placement = resolve_placement(config, num_units)
    src_unit = np.asarray(src_unit, dtype=np.int64)
    dst_unit = np.asarray(dst_unit, dtype=np.int64)
    return MultiDeviceRun(
        placement,
        weights=weights,
        remote_counts=remote_unit_counts(src_unit, dst_unit, placement),
        value_bytes=value_bytes,
        pcie=pcie,
    )
