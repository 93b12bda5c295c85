"""Execution-environment simulation: device memory, profiling, hardware,
the instrumented sparse-compute cache layer, the basis-term propagation
planner, the process-pool grid executor for parallel benchmark sweeps,
and the content-addressed cell artifact store that makes sweeps
resumable."""

from .artifacts import (
    ARTIFACT_DIR_ENV,
    ARTIFACT_SCHEMA,
    DEFAULT_ARTIFACT_DIR,
    ArtifactStore,
    CellArtifact,
    SweepArtifacts,
    active_sweep,
    cell_address,
    default_artifact_dir,
    default_code_rev,
    sweep_scope,
)
from .cache import (
    MISSING,
    NORM_MEMO_ENTRIES,
    LRUCache,
    caches_disabled,
    data_token,
    digest,
    is_enabled as cache_enabled,
    norm_memo,
    set_enabled as set_cache_enabled,
)
from .device import GIBIBYTE, DeviceModel, nbytes_of
from .hardware import PROFILES, S1, S2, HardwareProfile
from .plan import (
    PLAN_CHAIN_ENTRIES,
    BasisPlanner,
    active_planner,
    chain_bases,
    is_enabled as plan_enabled,
    plan_scope,
    plans_disabled,
    set_enabled as set_plan_enabled,
)
from .pool import (
    Cell,
    CellResult,
    PoolConfig,
    derive_cell_seed,
    execute_cells,
    last_run_stats,
    pool_stats,
)
from .profiler import StageProfiler, StageStats
from .shm import (
    SharedTermStore,
    StoreConfig,
    WorkerHandle,
    active_handle as active_shm_handle,
    active_store as active_shm_store,
    store_scope as shm_store_scope,
    supported as shm_supported,
    sweep_leaked_segments,
    worker_scope as shm_worker_scope,
)

__all__ = [
    "DeviceModel",
    "nbytes_of",
    "GIBIBYTE",
    "StageProfiler",
    "StageStats",
    "HardwareProfile",
    "S1",
    "S2",
    "PROFILES",
    # cache layer
    "LRUCache",
    "MISSING",
    "NORM_MEMO_ENTRIES",
    "cache_enabled",
    "set_cache_enabled",
    "caches_disabled",
    "data_token",
    "digest",
    "norm_memo",
    # basis-term planner
    "BasisPlanner",
    "PLAN_CHAIN_ENTRIES",
    "active_planner",
    "chain_bases",
    "plan_enabled",
    "plan_scope",
    "plans_disabled",
    "set_plan_enabled",
    # parallel sweep executor
    "Cell",
    "CellResult",
    "PoolConfig",
    "derive_cell_seed",
    "execute_cells",
    "last_run_stats",
    "pool_stats",
    # cross-process shared term store
    "SharedTermStore",
    "StoreConfig",
    "WorkerHandle",
    "active_shm_handle",
    "active_shm_store",
    "shm_supported",
    "shm_store_scope",
    "shm_worker_scope",
    "sweep_leaked_segments",
    # resumable-sweep artifact store
    "ARTIFACT_DIR_ENV",
    "ARTIFACT_SCHEMA",
    "DEFAULT_ARTIFACT_DIR",
    "ArtifactStore",
    "CellArtifact",
    "SweepArtifacts",
    "active_sweep",
    "cell_address",
    "default_artifact_dir",
    "default_code_rev",
    "sweep_scope",
]
