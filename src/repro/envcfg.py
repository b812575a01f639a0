"""Central registry of ``REPRO_*`` environment variables.

Every behavior knob the simulator reads from the environment is declared
here once, with its type, default and the tests that pin its semantics.
Call sites (the timing models, the experiment runner, the analysis
guard, the DSE scheduler) go through the typed accessors below instead
of ``os.environ.get`` so the README's environment-variable table can be
checked against code (``tools/check_docs.py`` / the docs-consistency
test) rather than drifting from it.

Accessors read the environment at call time, never at import time, so
tests can flip behavior in-process with ``monkeypatch.setenv``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: string values (lower-cased) that disable a boolean knob
_FALSY = ("0", "false", "off", "no")


@dataclass(frozen=True)
class EnvVar:
    """Declaration of one ``REPRO_*`` environment variable."""

    name: str
    #: "bool" | "int" | "path"
    kind: str
    #: human-readable default, as documented in README
    default: str
    #: one-line behavior summary (the README table's text)
    description: str
    #: test file(s) that pin the documented behavior
    pinned_by: str

    def raw(self) -> Optional[str]:
        return os.environ.get(self.name)


REPRO_REFERENCE = EnvVar(
    "REPRO_REFERENCE", "bool", "0",
    "`1` selects the reference implementation in every layer at once: "
    "the tree-walking interpreter, and per-access OoO, stream and "
    "hierarchy replay, including per-access hierarchy calls in the "
    "event-driven offload replay (bit-identical results, several times "
    "slower)",
    "tests/sim/test_reference_equiv.py",
)
REPRO_JOBS = EnvVar(
    "REPRO_JOBS", "int", "1",
    "default worker-process count for the experiment matrix and "
    "`repro.dse` sweeps when `--jobs` is not given",
    "tests/test_runner_parallel.py, tests/dse/test_sweep_determinism.py",
)
REPRO_NO_VERIFY = EnvVar(
    "REPRO_NO_VERIFY", "bool", "0",
    "`1` disables the default-on static IR verifier guard in "
    "`compile_kernel` and the golden interpreter",
    "tests/analysis/test_verifier.py",
)
REPRO_SERVE_PORT = EnvVar(
    "REPRO_SERVE_PORT", "int", "8177",
    "default TCP port of the `repro.serve` sweep service when `--port` "
    "is not given (`--socket` bypasses TCP entirely)",
    "tests/serve/test_config.py",
)
REPRO_SERVE_STORE = EnvVar(
    "REPRO_SERVE_STORE", "path", "serve-store.sqlite",
    "default sqlite result-store path of the sweep service when "
    "`--store` is not given (`--migrate-from` converts a v1 JSONL "
    "store)",
    "tests/serve/test_config.py",
)
REPRO_SERVE_WORKERS = EnvVar(
    "REPRO_SERVE_WORKERS", "int", "2",
    "default worker count of the sweep service when `--workers` is not "
    "given: dataset groups execute on this many processes in parallel",
    "tests/serve/test_config.py",
)
REPRO_SERVE_TTL_S = EnvVar(
    "REPRO_SERVE_TTL_S", "int", "0",
    "age-based TTL (seconds) for rows in the service's sqlite store; "
    "expired rows are evicted by the housekeeping loop; `0` disables "
    "expiry",
    "tests/serve/test_config.py, tests/dse/test_store_v2.py",
)
REPRO_SERVE_MAX_ROWS = EnvVar(
    "REPRO_SERVE_MAX_ROWS", "int", "0",
    "row cap for the service's sqlite store: each append evicts the "
    "oldest-written rows beyond the cap; `0` means unbounded",
    "tests/serve/test_config.py, tests/dse/test_store_v2.py",
)
REPRO_SERVE_TIMEOUT_S = EnvVar(
    "REPRO_SERVE_TIMEOUT_S", "int", "0",
    "per-dataset-group execution timeout (seconds) in the sweep "
    "service's worker processes; a group that exceeds it is recorded "
    "as `failed` rows at once, without a retry; `0` disables the "
    "timeout",
    "tests/serve/test_config.py, tests/serve/test_workers.py",
)

#: every declared variable, in documentation order
ENV_VARS: Tuple[EnvVar, ...] = (
    REPRO_REFERENCE, REPRO_JOBS, REPRO_NO_VERIFY,
    REPRO_SERVE_PORT, REPRO_SERVE_STORE, REPRO_SERVE_WORKERS,
    REPRO_SERVE_TTL_S, REPRO_SERVE_MAX_ROWS, REPRO_SERVE_TIMEOUT_S,
)


def registry() -> Dict[str, EnvVar]:
    return {v.name: v for v in ENV_VARS}


# -- typed accessors -------------------------------------------------------
def get_bool(var: EnvVar, default: bool) -> bool:
    """Boolean knob: unset -> ``default``; set -> false only for 0-ish."""
    raw = var.raw()
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSY


def get_int(var: EnvVar, default: int) -> int:
    raw = (var.raw() or "").strip()
    return int(raw) if raw else default


def get_path(var: EnvVar) -> Optional[str]:
    return var.raw() or None


def reference_enabled() -> bool:
    """True when ``REPRO_REFERENCE`` selects the reference paths."""
    return get_bool(REPRO_REFERENCE, False)


def verification_enabled() -> bool:
    """True unless ``REPRO_NO_VERIFY`` is set to something non-zero."""
    return (REPRO_NO_VERIFY.raw() or "") in ("", "0")


def default_jobs() -> int:
    """``$REPRO_JOBS`` or 1 (serial)."""
    return get_int(REPRO_JOBS, 1)


# -- repro.serve defaults (CLI flags override these) -----------------------
def serve_port() -> int:
    return get_int(REPRO_SERVE_PORT, 8177)


def serve_store_path() -> str:
    return get_path(REPRO_SERVE_STORE) or "serve-store.sqlite"


def serve_workers() -> int:
    return get_int(REPRO_SERVE_WORKERS, 2)


def serve_ttl_s() -> int:
    return get_int(REPRO_SERVE_TTL_S, 0)


def serve_max_rows() -> int:
    return get_int(REPRO_SERVE_MAX_ROWS, 0)


def serve_timeout_s() -> int:
    return get_int(REPRO_SERVE_TIMEOUT_S, 0)
