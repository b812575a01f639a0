"""Static sweep pruning: dominance planning and frontier preservation."""

import os

from repro.dse.prune import (
    PRUNE_SAFE_OVERRIDES,
    design_key,
    format_design,
    plan_pruning,
    static_bounds_fn,
)
from repro.dse.report import (
    bound_escapes,
    bound_tightness,
    format_report,
    pareto_frontier,
)
from repro.dse.scheduler import run_sweep
from repro.dse.spec import STORE_VERSION, SweepPoint, SweepSpec
from repro.dse.store import SqliteResultStore


def _spec(prune=False, configs=("ooo", "mono_ca")):
    return SweepSpec.from_dict({
        "name": "prune-test", "scale": "tiny",
        "workloads": ["sei"], "configs": list(configs),
        "prune": prune,
    })


def _ok_row(point, base, time_ps, energy_pj):
    return {
        "hash": point.content_hash(base),
        "version": STORE_VERSION,
        "status": "ok",
        "point": point.as_dict(),
        "metrics": {"time_ps": time_ps, "energy_pj": energy_pj},
        "error": None,
        "attempts": 1,
    }


def _points(spec, base):
    return [(p.content_hash(base), p) for p in spec.points()]


HUGE = {"time_ps": (1e18, float("inf")),
        "energy_pj": (1e18, float("inf"))}


class TestPlanPruning:
    def test_dominated_design_is_pruned(self):
        spec = _spec()
        base = spec.base_machine()
        points = _points(spec, base)
        completed = [_ok_row(p, base, 100.0, 100.0)
                     for _, p in points if p.config == "ooo"]
        pending = [(h, p) for h, p in points if p.config == "mono_ca"]

        plan = plan_pruning(spec, pending, completed,
                            lambda point: HUGE)
        assert set(plan.pruned) == {h for h, _ in pending}
        assert "ooo" in next(iter(plan.pruned.values()))

    def test_no_bounds_never_pruned(self):
        spec = _spec()
        base = spec.base_machine()
        points = _points(spec, base)
        completed = [_ok_row(p, base, 100.0, 100.0)
                     for _, p in points if p.config == "ooo"]
        pending = [(h, p) for h, p in points if p.config == "mono_ca"]

        plan = plan_pruning(spec, pending, completed, lambda point: None)
        assert not plan.pruned
        assert not plan.bounds

    def test_overlap_on_one_axis_never_pruned(self):
        spec = _spec()
        base = spec.base_machine()
        points = _points(spec, base)
        completed = [_ok_row(p, base, 100.0, 100.0)
                     for _, p in points if p.config == "ooo"]
        pending = [(h, p) for h, p in points if p.config == "mono_ca"]

        # wins on energy lower bound: dominance is not strict on both
        cheap_energy = {"time_ps": (1e18, float("inf")),
                        "energy_pj": (1.0, float("inf"))}
        plan = plan_pruning(spec, pending, completed,
                            lambda point: cheap_energy)
        assert not plan.pruned

    def test_partially_measured_design_keeps_running(self):
        spec = SweepSpec.from_dict({
            "name": "partial", "scale": "tiny",
            "workloads": ["sei", "pf"], "configs": ["ooo", "mono_ca"],
            "prune": True,
        })
        base = spec.base_machine()
        points = _points(spec, base)
        # ooo fully measured; mono_ca measured for sei only
        completed = [_ok_row(p, base, 100.0, 100.0)
                     for _, p in points
                     if p.config == "ooo"
                     or (p.config == "mono_ca" and p.workload == "sei")]
        pending = [(h, p) for h, p in points
                   if p.config == "mono_ca" and p.workload == "pf"]

        plan = plan_pruning(spec, pending, completed,
                            lambda point: HUGE)
        assert not plan.pruned

    def test_incomplete_stored_design_does_not_dominate(self):
        spec = SweepSpec.from_dict({
            "name": "incomplete", "scale": "tiny",
            "workloads": ["sei", "pf"], "configs": ["ooo", "mono_ca"],
            "prune": True,
        })
        base = spec.base_machine()
        points = _points(spec, base)
        # ooo has measured only 1 of its 2 workloads: its geomean is
        # not the frontier geomean yet, so it must not prune anything
        completed = [_ok_row(p, base, 100.0, 100.0)
                     for _, p in points
                     if p.config == "ooo" and p.workload == "sei"]
        pending = [(h, p) for h, p in points if p.config == "mono_ca"]

        plan = plan_pruning(spec, pending, completed,
                            lambda point: HUGE)
        assert not plan.pruned

    def test_design_key_matches_frontier_granularity(self):
        a = SweepPoint("sei", "mono_ca", "tiny",
                       machine_overrides=(("accel_freq_ghz", 2.0),))
        b = SweepPoint("pf", "mono_ca", "tiny",
                       machine_overrides=(("accel_freq_ghz", 2.0),))
        assert design_key(a) == design_key(b)
        assert "accel_freq_ghz=2.0" in format_design(design_key(a))


class TestStaticBoundsFn:
    def test_validated_config_gets_bounds(self):
        spec = _spec()
        bounds = static_bounds_fn(spec, spec.base_machine())
        b = bounds(SweepPoint("sei", "mono_ca", "tiny"))
        assert b is not None
        assert b["time_ps"][0] > 0

    def test_unvalidated_override_gets_none(self):
        spec = _spec()
        bounds = static_bounds_fn(spec, spec.base_machine())
        point = SweepPoint(
            "sei", "mono_ca", "tiny",
            machine_overrides=(("dram.latency_cycles", 400),),
        )
        assert "dram.latency_cycles" not in PRUNE_SAFE_OVERRIDES
        assert bounds(point) is None

    def test_safe_override_is_parameterized(self):
        # dist_da_f takes the machine's accelerator clock as-is (the
        # mono_ca spec pins its own), so the axis must move the bound
        spec = _spec()
        base = spec.base_machine()
        bounds = static_bounds_fn(spec, base)
        slow = bounds(SweepPoint(
            "sei", "dist_da_f", "tiny",
            machine_overrides=(("accel_freq_ghz", 0.5),)))
        fast = bounds(SweepPoint(
            "sei", "dist_da_f", "tiny",
            machine_overrides=(("accel_freq_ghz", 2.0),)))
        assert slow is not None and fast is not None
        assert slow["time_ps"][0] > fast["time_ps"][0]


class TestSweepIntegration:
    def test_pruned_sweep_reproduces_unpruned_frontier(self, tmp_path):
        """Acceptance: with pruning on and *sound* bounds, the frontier
        is identical and every skipped point is an explicit pruned row.

        On sei tiny, mono_ca's measured geomeans strictly dominate
        ooo's, so a store seeded with the completed mono_ca design plus
        truthful ooo lower bounds (the exact measured values are valid
        lower bounds) must prune ooo without changing the frontier.
        """
        base_store = str(tmp_path / "ref.sqlite")
        ref = run_sweep(_spec(), store_path=base_store)
        ref_frontier = {p["config"] for p in pareto_frontier(ref)
                        if p["on_frontier"]}
        assert ref_frontier == {"mono_ca"}  # scenario precondition

        measured = {
            (r["point"]["workload"], r["point"]["config"]):
                r["metrics"] for r in ref.ok_rows()
        }

        pruned_store = str(tmp_path / "pruned.sqlite")
        with SqliteResultStore(pruned_store) as store:
            for row in ref.ok_rows():
                if row["point"]["config"] == "mono_ca":
                    store.append(row)

        def bounds(point):
            m = measured[(point.workload, point.config)]
            return {k: (float(m[k]), float("inf"))
                    for k in ("time_ps", "energy_pj")}

        res = run_sweep(_spec(prune=True), store_path=pruned_store,
                        resume=True, bounds_fn=bounds)
        assert len(res.pruned_rows()) == 1
        row = res.pruned_rows()[0]
        assert row["point"]["config"] == "ooo"
        assert row["pruned_by"].startswith("mono_ca")
        assert row["bounds"]["time_ps"][0] > 0

        surviving = {p["config"] for p in pareto_frontier(res)
                     if p["on_frontier"]}
        assert surviving == ref_frontier

        report = format_report(res)
        assert "Statically pruned points" in report
        assert "ooo" in report

    def test_real_bounds_attach_and_contain(self, tmp_path):
        """With the production bounds_fn, measured rows stay inside
        their intervals and tightness is reportable."""
        store = str(tmp_path / "real.sqlite")
        res = run_sweep(_spec(prune=True), store_path=store)
        assert not res.pruned_rows()  # empty store: nothing to dominate
        for row in res.ok_rows():
            assert "bounds" in row
        assert bound_escapes(res) == []
        metrics = {m for m, _, _ in bound_tightness(res)}
        assert "time_ps" in metrics and "energy_pj" in metrics
        assert "AN-C bound tightness" in format_report(res)

    def test_prune_off_attaches_nothing(self, tmp_path):
        res = run_sweep(_spec(prune=False),
                        store_path=str(tmp_path / "off.sqlite"))
        assert all("bounds" not in row for row in res.ok_rows())

    def test_store_rows_roundtrip_through_disk(self, tmp_path):
        store = str(tmp_path / "disk.sqlite")
        run_sweep(_spec(prune=True), store_path=store)
        assert os.path.exists(store)
        with SqliteResultStore(store) as reopened:
            rows = list(reopened.load().values())
        assert {r["status"] for r in rows} == {"ok"}
        assert all("bounds" in r for r in rows)


class TestSpecFlag:
    def test_prune_roundtrips(self):
        spec = _spec(prune=True)
        assert spec.prune is True
        assert SweepSpec.from_dict(spec.as_dict()).prune is True

    def test_prune_defaults_off(self):
        assert _spec().prune is False
