"""System configurations from Table III of the EVE paper.

Each simulated system (IO, O3, O3+IV, O3+DV, O3+EVE-n) is described by a
:class:`SystemConfig` aggregating cache, core, and vector-engine parameters.
The values here are the paper's Table III values; experiments construct
machines from these configs via :mod:`repro.experiments.systems`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError

CACHE_LINE_BYTES = 64
ELEMENT_BITS = 32
ELEMENT_BYTES = ELEMENT_BITS // 8

#: Cycle time of the vanilla 28nm SRAM measured in Section VI (nanoseconds).
BASE_CYCLE_TIME_NS = 1.025

#: Cycle-time penalty factors for bit-hybrid parallelization factors
#: (Section VI-B): n <= 8 has no penalty, n = 16 costs ~15%, n = 32 ~51%.
CYCLE_TIME_NS_BY_FACTOR = {
    1: 1.025,
    2: 1.025,
    4: 1.025,
    8: 1.025,
    16: 1.175,
    32: 1.550,
}

#: Parallelization factors evaluated in the paper.
EVE_FACTORS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    ways: int
    hit_latency: int
    mshrs: int
    banks: int = 1
    line_bytes: int = CACHE_LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )
        if self.sets & (self.sets - 1):
            raise ConfigError(f"{self.name}: set count {self.sets} not a power of two")

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class DramConfig:
    """Single-channel DDR4-2400-like main memory model parameters.

    Latency and bandwidth are expressed in *core cycles* of a nominal
    1.025ns clock; EVE systems with a slowed clock rescale them so DRAM
    stays fixed in wall-clock terms.
    """

    access_latency: float = 80.0
    bytes_per_cycle: float = 19.2
    channels: int = 1


@dataclass(frozen=True)
class ScalarCoreConfig:
    """Parameters of the scalar control processor models."""

    kind: str  # "io" or "o3"
    issue_width: int
    #: Fraction of a cache-miss penalty the core can hide by overlapping
    #: independent work (0 for the blocking in-order core).
    miss_overlap: float
    base_cpi: float

    def __post_init__(self) -> None:
        if self.kind not in ("io", "o3"):
            raise ConfigError(f"unknown scalar core kind {self.kind!r}")
        if not 0.0 <= self.miss_overlap < 1.0:
            raise ConfigError("miss_overlap must be in [0, 1)")


@dataclass(frozen=True)
class VectorEngineConfig:
    """Parameters shared by the IV / DV / EVE vector-engine models."""

    kind: str  # "iv", "dv", or "eve"
    hardware_vl: int
    exec_pipes: int
    in_order: bool
    #: EVE only: the parallelization factor n of the bit-hybrid circuits.
    factor: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("iv", "dv", "eve"):
            raise ConfigError(f"unknown vector engine kind {self.kind!r}")
        if self.kind == "eve" and self.factor not in EVE_FACTORS:
            raise ConfigError(f"EVE factor must be one of {EVE_FACTORS}")
        if self.hardware_vl <= 0:
            raise ConfigError("hardware_vl must be positive")


@dataclass(frozen=True)
class EveSramConfig:
    """Geometry of the EVE SRAM pool carved out of the private L2."""

    #: One EVE SRAM = two banked 256x128 sub-arrays (Section VI-B).
    rows: int = 256
    cols: int = 256
    num_vregs: int = 32
    #: Number of EVE SRAMs in the partitioned half of a 512KB L2
    #: (256 KB / 8 KB per EVE SRAM = 32).
    num_arrays: int = 32
    #: Read/write port width of one EVE SRAM in bits.
    port_bits: int = 256
    #: Data transpose units shared by the engine (Section VII-B).
    num_dtus: int = 8

    def __post_init__(self) -> None:
        for name in ("rows", "cols", "num_vregs", "num_arrays", "port_bits"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ConfigError(f"EveSramConfig.{name} must be a power of two, got {value}")


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated system (one column of Table III)."""

    name: str
    core: ScalarCoreConfig
    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    llc: CacheConfig
    dram: DramConfig
    vector: VectorEngineConfig | None = None
    eve_sram: EveSramConfig | None = None
    cycle_time_ns: float = BASE_CYCLE_TIME_NS

    def __post_init__(self) -> None:
        if self.vector is not None and self.vector.kind == "eve" and self.eve_sram is None:
            raise ConfigError("EVE systems require an EveSramConfig")


def _default_l1i() -> CacheConfig:
    return CacheConfig("L1I", 32 * 1024, ways=4, hit_latency=1, mshrs=16)


def _default_l1d() -> CacheConfig:
    return CacheConfig("L1D", 32 * 1024, ways=4, hit_latency=2, mshrs=16)


def _default_l2() -> CacheConfig:
    return CacheConfig("L2", 512 * 1024, ways=8, hit_latency=8, mshrs=32, banks=8)


def _eve_mode_l2() -> CacheConfig:
    # In vector mode, half the ways are carved out: 4-way 256KB (Table III).
    return CacheConfig("L2", 256 * 1024, ways=4, hit_latency=8, mshrs=32, banks=8)


def _default_llc() -> CacheConfig:
    return CacheConfig("LLC", 2 * 1024 * 1024, ways=16, hit_latency=12, mshrs=32)


IO_CORE = ScalarCoreConfig(kind="io", issue_width=1, miss_overlap=0.0, base_cpi=1.0)
O3_CORE = ScalarCoreConfig(kind="o3", issue_width=8, miss_overlap=0.45, base_cpi=0.5)


def eve_hardware_vl(factor: int, sram: EveSramConfig | None = None) -> int:
    """Hardware vector length of an EVE-``factor`` engine (Table III).

    Derived from the register layout: with 32 vregs of 32-bit elements in a
    256x256 array, EVE-{1,2,4} hold 64 elements per array, EVE-8 holds 32,
    EVE-16 holds 16, and EVE-32 holds 8; times 32 arrays this yields vector
    lengths of 2048 / 2048 / 2048 / 1024 / 512 / 256.
    """
    from .sram.layout import RegisterLayout  # local import to avoid a cycle

    sram = sram or EveSramConfig()
    layout = RegisterLayout(
        rows=sram.rows,
        cols=sram.cols,
        element_bits=ELEMENT_BITS,
        factor=factor,
        num_vregs=sram.num_vregs,
    )
    return layout.elements_per_array * sram.num_arrays


def make_system(name: str) -> SystemConfig:
    """Build a Table III system config by name.

    Accepted names: ``IO``, ``O3``, ``O3+IV``, ``O3+DV``, and ``O3+EVE-n``
    for n in {1, 2, 4, 8, 16, 32}.
    """
    if name == "IO":
        return SystemConfig(
            name=name, core=IO_CORE, l1i=_default_l1i(), l1d=_default_l1d(),
            l2=_default_l2(), llc=_default_llc(), dram=DramConfig(),
        )
    if name == "O3":
        return SystemConfig(
            name=name, core=O3_CORE, l1i=_default_l1i(), l1d=_default_l1d(),
            l2=_default_l2(), llc=_default_llc(), dram=DramConfig(),
        )
    if name == "O3+IV":
        return SystemConfig(
            name=name, core=O3_CORE, l1i=_default_l1i(), l1d=_default_l1d(),
            l2=_default_l2(), llc=_default_llc(), dram=DramConfig(),
            vector=VectorEngineConfig(kind="iv", hardware_vl=4, exec_pipes=3, in_order=False),
        )
    if name == "O3+DV":
        return SystemConfig(
            name=name, core=O3_CORE, l1i=_default_l1i(), l1d=_default_l1d(),
            l2=_default_l2(), llc=_default_llc(), dram=DramConfig(),
            vector=VectorEngineConfig(kind="dv", hardware_vl=64, exec_pipes=4, in_order=True),
        )
    if name.startswith("O3+EVE-"):
        try:
            factor = int(name.split("-")[-1])
        except ValueError as exc:
            raise ConfigError(f"bad EVE system name {name!r}") from exc
        if factor not in EVE_FACTORS:
            raise ConfigError(f"EVE factor must be one of {EVE_FACTORS}, got {factor}")
        sram = EveSramConfig()
        # DRAM timing is fixed in wall-clock terms; systems with a slowed
        # clock (EVE-16/32) see proportionally fewer DRAM *cycles*.
        clock_ratio = CYCLE_TIME_NS_BY_FACTOR[factor] / BASE_CYCLE_TIME_NS
        dram = DramConfig(
            access_latency=DramConfig.access_latency / clock_ratio,
            bytes_per_cycle=DramConfig.bytes_per_cycle * clock_ratio,
        )
        return SystemConfig(
            name=name, core=O3_CORE, l1i=_default_l1i(), l1d=_default_l1d(),
            l2=_eve_mode_l2(), llc=_default_llc(), dram=dram,
            vector=VectorEngineConfig(
                kind="eve", hardware_vl=eve_hardware_vl(factor, sram),
                exec_pipes=1, in_order=True, factor=factor,
            ),
            eve_sram=sram,
            cycle_time_ns=CYCLE_TIME_NS_BY_FACTOR[factor],
        )
    raise ConfigError(f"unknown system {name!r}")


def all_system_names() -> list[str]:
    """Names of every system evaluated in the paper (Figure 6 x-axis)."""
    return ["IO", "O3", "O3+IV", "O3+DV"] + [f"O3+EVE-{n}" for n in EVE_FACTORS]


def with_dram(config: SystemConfig, dram: DramConfig) -> SystemConfig:
    """Return a copy of ``config`` with a different DRAM model."""
    return replace(config, dram=dram)
