"""Node-local NVMe (burst buffer) model.

The paper's motivation says many DOE machines lack node-local NVMe — and
that where it exists, staging the dataset to it is the conventional
alternative to DDStore.  Summit ships a 1.6 TB XL4500 burst buffer per
node; we model it so the reproduction can run the comparison the paper
alludes to: *NVMe staging vs in-memory distributed store*.

An :class:`NVMeDevice` is a per-node queueing station with flash-like
latency and bandwidth plus a capacity limit; staging and random reads are
priced through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Engine, QueueStation

__all__ = ["NVMeSpec", "NVMeDevice"]


@dataclass(frozen=True)
class NVMeSpec:
    """One node's local SSD characteristics."""

    capacity_bytes: int
    read_latency_s: float  # per-IO flash latency (queue depth 1)
    read_bandwidth_Bps: float
    write_bandwidth_Bps: float
    iops: float  # sustained small-read IOPS (sets the service rate)


# Summit's per-node burst buffer (Samsung PM1725a-class).
SUMMIT_BURST_BUFFER = NVMeSpec(
    capacity_bytes=1600 * 10**9,
    read_latency_s=90e-6,
    read_bandwidth_Bps=5.5e9,
    write_bandwidth_Bps=2.1e9,
    iops=800_000,
)

TEST_NVME = NVMeSpec(
    capacity_bytes=64 * 2**20,
    read_latency_s=50e-6,
    read_bandwidth_Bps=1e9,
    write_bandwidth_Bps=0.5e9,
    iops=100_000,
)


class NVMeDevice:
    """A node's local SSD: capacity accounting + a FIFO service queue."""

    def __init__(self, engine: Engine, spec: NVMeSpec, name: str = "nvme") -> None:
        self.engine = engine
        self.spec = spec
        self.station = QueueStation(engine, name=name)
        self.used_bytes = 0

    @property
    def free_bytes(self) -> int:
        return self.spec.capacity_bytes - self.used_bytes

    def allocate(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("negative allocation")
        if nbytes > self.free_bytes:
            raise OSError(
                f"NVMe full: need {nbytes / 1e9:.1f} GB, "
                f"{self.free_bytes / 1e9:.1f} GB free of "
                f"{self.spec.capacity_bytes / 1e9:.1f} GB"
            )
        self.used_bytes += nbytes

    def release(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("negative release")
        if nbytes > self.used_bytes:
            # Silently clamping here would leak capacity: a tier that
            # double-releases an entry frees bytes it never held and the
            # accounting bug stays invisible.  Fail loudly instead.
            raise ValueError(
                f"NVMe over-release: asked to free {nbytes} bytes with only "
                f"{self.used_bytes} allocated"
            )
        self.used_bytes -= nbytes

    def read(self, nbytes: int, arrival: float) -> float:
        """Random read of ``nbytes``; returns completion time."""
        if nbytes < 0:
            raise ValueError("negative read")
        service = 1.0 / self.spec.iops + nbytes / self.spec.read_bandwidth_Bps
        done = self.station.serve(arrival, service)
        return done + self.spec.read_latency_s

    def read_many(self, n_requests: int, nbytes: int, arrival: float) -> float:
        """One submitted batch of ``n_requests`` random reads totalling
        ``nbytes``; returns completion time.

        Models a queue-depth>1 submission (io_uring/AIO style): each
        request still costs one IOPS slot and its bytes, but the whole
        batch pays the flash latency once — the amortisation the tiered
        cache's grouped promotion reads rely on.
        """
        if n_requests < 1:
            raise ValueError("read_many needs at least one request")
        if nbytes < 0:
            raise ValueError("negative read")
        service = n_requests / self.spec.iops + nbytes / self.spec.read_bandwidth_Bps
        done = self.station.serve(arrival, service)
        return done + self.spec.read_latency_s

    def write(self, nbytes: int, arrival: float) -> float:
        """Streaming write (staging); returns completion time.

        Does not allocate — call :meth:`allocate` first so capacity
        failures surface before any time is spent.
        """
        if nbytes < 0:
            raise ValueError("negative write")
        service = nbytes / self.spec.write_bandwidth_Bps
        return self.station.serve(arrival, service)
