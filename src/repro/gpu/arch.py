"""GPU architecture descriptions (Table I of the paper).

Each :class:`GpuArch` bundles the static characteristics of one device --
SM count, clock, warp size, occupancy limit -- together with the latency
parameters used by the cost model.  Three presets mirror the paper's
evaluation hardware: the Pascal-class P100 and GTX 1080Ti, and the
Volta-class V100.

The single behavioural difference that matters for the paper's Section
VI-B finding (removing ``ballot_sync`` helps only on Volta) is captured by
``independent_thread_scheduling``: on Volta, warp-level query/sync
primitives force a re-synchronisation of independently scheduled
sub-warps, which the cost model charges for; on Pascal they are nearly
free.

An architecture also names the interpreter tier its devices run
(:attr:`GpuArch.fast_path`: the segment JIT or the tree-walking oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from ..errors import LaunchError

#: The two interpreter tiers a simulated device can execute through: the
#: tree-walking oracle and the segment JIT.  They are bit-for-bit
#: equivalent -- same cycles, instruction counts, buffers, RNG streams
#: and trap messages -- pinned by ``tests/gpu/test_fast_path_equivalence.py``;
#: only the oracle records cost-model counters and profiles.
INTERPRETER_TIERS: Tuple[str, ...] = ("oracle", "jit")

#: Selector values earlier versions accepted, and the tier replacing each.
_REMOVED_TIERS = {True: "jit", False: "oracle", "dispatch": "jit",
                  "decoded": "jit", "fast": "jit", "reference": "oracle"}


def check_interpreter_tier(value) -> str:
    """Return *value* if it names a tier of :data:`INTERPRETER_TIERS`.

    Anything else raises :class:`~repro.errors.LaunchError`; a removed
    selector (the ``True``/``False`` booleans, the ``dispatch`` tier and
    the ``decoded``/``fast``/``reference`` aliases) names its replacement.
    """
    if value in INTERPRETER_TIERS:
        return value
    if isinstance(value, (bool, str)) and value in _REMOVED_TIERS:
        raise LaunchError(
            f"interpreter tier {value!r} was removed; use "
            f"{_REMOVED_TIERS[value]!r}")
    raise LaunchError(f"unknown interpreter tier {value!r}; expected one of "
                      f"{INTERPRETER_TIERS}")


@dataclass(frozen=True)
class GpuArch:
    """Static description of a simulated GPU."""

    name: str
    family: str
    cuda_cores: int
    sm_count: int
    clock_mhz: float
    memory_size_gb: float
    memory_type: str
    warp_size: int = 32
    max_blocks_per_sm: int = 8
    max_threads_per_block: int = 1024
    shared_memory_per_block: int = 48 * 1024
    #: Volta and later schedule sub-warps independently; warp-wide sync
    #: primitives (ballot_sync / syncwarp) then carry a real cost.
    independent_thread_scheduling: bool = False

    #: Which interpreter tier kernels execute through: ``"jit"`` (the
    #: default) or ``"oracle"``, the tree-walking reference kept for
    #: checking the JIT (also selectable per device via
    #: ``GpuDevice(..., fast_path=...)`` or the CLI ``--interpreter-tier``
    #: flag).  Both tiers are bit-for-bit equivalent.
    fast_path: str = "jit"

    # --- memory geometry, in elements / banks --------------------------------
    #: Width of one global-memory transaction segment: lanes whose element
    #: indices fall into the same ``memory_segment_size``-wide window
    #: coalesce into a single transaction.  The cost model reads this from
    #: the arch -- never a hard-coded 32 -- so non-32-lane memory models
    #: (e.g. half-warp transactions on G80-class parts) price correctly.
    memory_segment_size: int = 32
    #: Number of shared-memory banks; lanes hitting the same bank
    #: serialise.  Read by the cost model alongside ``memory_segment_size``.
    shared_banks: int = 32

    # --- cost-model latencies, in cycles -------------------------------------
    alu_latency: int = 4
    special_latency: int = 16
    global_latency: int = 70
    global_store_latency: int = 40
    global_per_transaction: int = 16
    shared_latency: int = 24
    shared_store_latency: int = 4
    shared_conflict_penalty: int = 2
    atomic_latency: int = 48
    atomic_serialization: int = 8
    shuffle_latency: int = 10
    barrier_latency: int = 18
    branch_latency: int = 6
    warp_sync_latency: int = 4
    rng_latency: int = 16

    #: Per-opcode overrides applied on top of the category defaults.
    cost_overrides: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        check_interpreter_tier(self.fast_path)

    @property
    def concurrent_blocks(self) -> int:
        """How many thread blocks the whole device can run simultaneously."""
        return self.sm_count * self.max_blocks_per_sm

    def with_overrides(self, **changes) -> "GpuArch":
        """Return a copy of the architecture with some fields replaced."""
        return replace(self, **changes)

    def cost_signature(self) -> Tuple:
        """Hashable signature of every cost parameter the decode step bakes in.

        Two architectures with equal signatures (and warp size) produce
        identical decoded programs, so this keys the per-function decode
        cache.  The memory latencies and geometry are included because the
        JIT tier inlines them into generated segment source as literals;
        only the *addresses* a warp touches stay dynamic.
        """
        return (
            self.alu_latency, self.special_latency, self.rng_latency,
            self.branch_latency, self.barrier_latency, self.warp_sync_latency,
            self.shuffle_latency, self.independent_thread_scheduling,
            self.memory_segment_size, self.shared_banks,
            self.global_latency, self.global_store_latency,
            self.global_per_transaction, self.shared_latency,
            self.shared_store_latency, self.shared_conflict_penalty,
            self.atomic_latency, self.atomic_serialization,
            tuple(sorted(self.cost_overrides.items())),
        )

    def table_row(self) -> Dict[str, object]:
        """Row of Table I for this GPU."""
        return {
            "GPU": self.name,
            "Architecture Family": self.family,
            "CUDA cores": self.cuda_cores,
            "Core Frequency": f"{self.clock_mhz:.0f} Mhz",
            "Memory Size": f"{self.memory_size_gb:.0f}GB {self.memory_type}",
        }


P100 = GpuArch(
    name="P100",
    family="Pascal",
    cuda_cores=3584,
    sm_count=56,
    clock_mhz=1386.0,
    memory_size_gb=16,
    memory_type="HBM",
    global_latency=75,
    shared_latency=24,
    shuffle_latency=10,
    independent_thread_scheduling=False,
)

GTX1080TI = GpuArch(
    name="1080Ti",
    family="Pascal",
    cuda_cores=3584,
    sm_count=28,
    clock_mhz=1999.0,
    memory_size_gb=11,
    memory_type="GDDR5X",
    global_latency=85,
    shared_latency=26,
    shuffle_latency=10,
    independent_thread_scheduling=False,
)

V100 = GpuArch(
    name="V100",
    family="Volta",
    cuda_cores=5120,
    sm_count=80,
    clock_mhz=1530.0,
    memory_size_gb=16,
    memory_type="HBM2",
    global_latency=65,
    shared_latency=20,
    shuffle_latency=8,
    barrier_latency=16,
    independent_thread_scheduling=True,
    # Sub-warp resynchronisation cost charged for ballot_sync / syncwarp.
    warp_sync_latency=12,
)

G80 = GpuArch(
    name="G80",
    family="Tesla",
    cuda_cores=128,
    sm_count=16,
    clock_mhz=1350.0,
    memory_size_gb=0.75,
    memory_type="GDDR3",
    shared_memory_per_block=16 * 1024,
    # Pre-Fermi memory system: global transactions are issued per
    # half-warp (16-element segments) and shared memory has 16 banks.
    # This is the registry-visible non-32 geometry that pins the
    # arch-aware pricing seam.
    memory_segment_size=16,
    shared_banks=16,
    global_latency=140,
    global_store_latency=60,
    global_per_transaction=24,
    shared_latency=28,
    shared_conflict_penalty=4,
    independent_thread_scheduling=False,
)

#: All known architectures, keyed by name.  The three paper presets are
#: pre-registered (plus the G80 geometry probe); :func:`register_arch`
#: adds custom ones (new latency models, hypothetical devices) so sweeps
#: and the CLI can reach them by name without code changes elsewhere.
ARCHITECTURES: Dict[str, GpuArch] = {
    arch.name: arch for arch in (P100, GTX1080TI, V100, G80)
}

#: Evaluation order used throughout the paper's figures.
EVALUATION_ORDER: Tuple[str, ...] = ("P100", "1080Ti", "V100")


def register_arch(arch: GpuArch, *, overwrite: bool = False) -> GpuArch:
    """Add *arch* to the registry so :func:`get_arch` can find it by name.

    Registration is idempotent for an identical architecture; replacing an
    existing name with a *different* description requires
    ``overwrite=True`` (silently changing what "P100" means would poison
    fitness-cache keys, which embed the arch name).
    """
    existing = ARCHITECTURES.get(arch.name)
    if existing is not None and existing != arch and not overwrite:
        raise ValueError(
            f"architecture {arch.name!r} is already registered with a different "
            "description; pass overwrite=True to replace it")
    ARCHITECTURES[arch.name] = arch
    return arch


def available_archs() -> Tuple[str, ...]:
    """Registered architecture names, paper evaluation order first."""
    extras = tuple(name for name in ARCHITECTURES if name not in EVALUATION_ORDER)
    return tuple(name for name in EVALUATION_ORDER if name in ARCHITECTURES) + extras


def get_arch(name: str) -> GpuArch:
    """Look up an architecture preset by name (case insensitive)."""
    for key, arch in ARCHITECTURES.items():
        if key.lower() == name.lower():
            return arch
    raise KeyError(
        f"unknown GPU architecture {name!r}; available: {sorted(ARCHITECTURES)}"
    )


def parse_arch_list(spec: str) -> Tuple[str, ...]:
    """Resolve a comma-separated architecture list to canonical names.

    ``"p100,V100"`` -> ``("P100", "V100")``.  Unknown names raise
    :class:`KeyError` (with the available names); duplicates collapse,
    preserving first-seen order.
    """
    names = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        canonical = get_arch(part).name
        if canonical not in names:
            names.append(canonical)
    if not names:
        raise KeyError(f"no architectures in {spec!r}; available: {sorted(ARCHITECTURES)}")
    return tuple(names)


def architecture_table() -> Tuple[Dict[str, object], ...]:
    """Return Table I as a tuple of row dictionaries."""
    return tuple(ARCHITECTURES[name].table_row() for name in EVALUATION_ORDER)
