"""Service configuration: one dataclass, env defaults, CLI overrides.

Defaults come from the ``REPRO_SERVE_*`` environment variables declared
in :mod:`repro.envcfg` (see the README table); ``python -m repro.serve``
flags override them per invocation. The precedence is therefore
flag > environment > built-in default, the same contract ``--jobs`` /
``REPRO_JOBS`` already follows elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import envcfg
from ..errors import ConfigError


@dataclass
class ServeConfig:
    """Everything a :class:`~repro.serve.server.SweepServer` needs."""

    #: TCP bind address; loopback by default — the service ships with
    #: no authentication, so exposing it wider is an operator decision
    host: str = "127.0.0.1"
    port: int = 8177
    #: unix-domain socket path; set, it replaces TCP entirely
    socket_path: Optional[str] = None
    store_path: str = "serve-store.sqlite"
    workers: int = 2
    #: per-dataset-group execution timeout in a worker process; 0
    #: disables
    timeout_s: float = 0.0
    #: age-based row TTL in the sqlite store; 0 disables
    ttl_s: float = 0.0
    #: sqlite store row cap (oldest-first eviction); 0 means unbounded
    max_rows: int = 0
    #: run dataset groups on the executor's threads instead of worker
    #: processes (fork-free, no timeout; used by tests and the bench)
    inline: bool = False
    #: seconds between housekeeping passes (TTL eviction)
    housekeeping_s: float = 60.0

    @classmethod
    def from_env(cls) -> "ServeConfig":
        """Defaults with every ``REPRO_SERVE_*`` variable applied."""
        return cls(
            port=envcfg.serve_port(),
            store_path=envcfg.serve_store_path(),
            workers=envcfg.serve_workers(),
            ttl_s=float(envcfg.serve_ttl_s()),
            max_rows=envcfg.serve_max_rows(),
            timeout_s=float(envcfg.serve_timeout_s()),
        )

    def validate(self) -> None:
        if self.workers < 1:
            raise ConfigError("serve: workers must be >= 1")
        if self.port < 0 or self.port > 65535:
            raise ConfigError(f"serve: bad port {self.port}")
        for name in ("timeout_s", "ttl_s"):
            if getattr(self, name) < 0:
                raise ConfigError(f"serve: {name} must be >= 0")
        if self.max_rows < 0:
            raise ConfigError("serve: max_rows must be >= 0")


__all__ = ["ServeConfig"]
