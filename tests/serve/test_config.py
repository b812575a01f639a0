"""ServeConfig: REPRO_SERVE_* environment defaults and validation.

Pins every ``REPRO_SERVE_*`` variable declared in :mod:`repro.envcfg`
(this file is the ``pinned_by`` reference in the README env table).
"""

import pytest

from repro.errors import ConfigError
from repro.serve.config import ServeConfig

SERVE_VARS = (
    "REPRO_SERVE_PORT", "REPRO_SERVE_STORE", "REPRO_SERVE_WORKERS",
    "REPRO_SERVE_TTL_S", "REPRO_SERVE_MAX_ROWS", "REPRO_SERVE_TIMEOUT_S",
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for var in SERVE_VARS:
        monkeypatch.delenv(var, raising=False)


class TestEnvDefaults:
    def test_builtin_defaults(self):
        cfg = ServeConfig.from_env()
        assert cfg.port == 8177
        assert cfg.store_path == "serve-store.sqlite"
        assert cfg.workers == 2
        assert cfg.ttl_s == 0.0
        assert cfg.max_rows == 0
        assert cfg.timeout_s == 0.0

    def test_port_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9001")
        assert ServeConfig.from_env().port == 9001

    def test_store_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_STORE", "/tmp/alt.sqlite")
        assert ServeConfig.from_env().store_path == "/tmp/alt.sqlite"

    def test_workers_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_WORKERS", "7")
        assert ServeConfig.from_env().workers == 7

    def test_ttl_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_TTL_S", "3600")
        assert ServeConfig.from_env().ttl_s == 3600.0

    def test_max_rows_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_ROWS", "500")
        assert ServeConfig.from_env().max_rows == 500

    def test_timeout_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_TIMEOUT_S", "30")
        assert ServeConfig.from_env().timeout_s == 30.0


class TestValidation:
    def test_defaults_validate(self):
        ServeConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("workers", 0),
        ("port", -1),
        ("port", 70000),
        ("timeout_s", -1.0),
        ("ttl_s", -5.0),
        ("max_rows", -2),
    ])
    def test_bad_values_rejected(self, field, value):
        cfg = ServeConfig(**{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()
