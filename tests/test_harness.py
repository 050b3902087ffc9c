import json
import math
import xml.dom.minidom

import numpy as np
import pytest

from fadingdirt import bounds_rcsi as br
from fadingdirt.errors import SpecInvalid, UnsupportedFormat
from fadingdirt.bounds_norcsi import ChannelParams
from fadingdirt.fading import Discrete, binomial_fading
from fadingdirt.harness import (
    CSV_COLUMNS,
    SweepSpec,
    emit,
    run_sweep,
    verify_claims,
)

GAUSSIAN_SMOKE = SweepSpec("no-rcsi", dist="gaussian", P_list=(1.0, 10.0, 100.0),
                           c2_list=(4.0, 16.0, 64.0))


class TestRunSweep:
    def test_gaussian_smoke_gap_identity(self):
        rows = run_sweep(GAUSSIAN_SMOKE)
        assert len(rows) == 9
        for r in rows:
            want = 0.5 * math.log2((r.c2 + 1) / r.c2) + 0.5
            assert r.measured_gap == pytest.approx(want, abs=1e-9)
            assert r.claimed_gap == 0.5

    def test_grid_order_deterministic(self):
        rows = run_sweep(GAUSSIAN_SMOKE)
        assert [(r.P, r.c2) for r in rows] == [
            (P, c2) for P in (1.0, 10.0, 100.0) for c2 in (4.0, 16.0, 64.0)]

    def test_repeat_runs_byte_identical(self):
        a = emit(run_sweep(GAUSSIAN_SMOKE), "csv")
        b = emit(run_sweep(GAUSSIAN_SMOKE), "csv")
        assert a == b

    def test_mass_half_claim_column(self):
        spec = SweepSpec("mass-half", dist="two-point", P_list=(1.0, 15.0),
                         c2_list=(4.0, 64.0))
        rows = run_sweep(spec)
        g = 1.0
        g_prime = 0.5 * math.log2(5.0)
        for r in rows:
            assert r.claimed_gap == pytest.approx(g_prime - g + 3.0, abs=1e-12)

    def test_precondition_violations_kept_and_flagged(self):
        spec = SweepSpec("mass-half", dist=binomial_fading(2, 0.5),
                         P_list=(1.0, 10.0), c2_list=(4.0,))
        rows = run_sweep(spec)
        assert len(rows) == 2
        assert all(not r.assumptions_ok for r in rows)

    def test_out_of_scope_mass_half_precodes_as_the_theorem_does(self):
        # no atom of mass >= 1/2, and the two largest tie: the row takes
        # a' = 1, the tied atom of smaller |a|, as mass_half_params would
        law = Discrete(((-2.0, 0.4), (1.0, 0.4), (3.0, 0.2)))
        (row,) = run_sweep(SweepSpec("mass-half", dist=law, P_list=(10.0,), c2_list=(4.0,)))
        G = 0.4 * math.log2(9.0) + 0.2 * math.log2(4.0)
        G_prime = 0.4 * math.log2(9.0 / 4.0 + 1.0) + 0.2 * math.log2(4.0 / 9.0 + 1.0)
        mp = br.MassHalfParams(a_prime=1.0, P_prime=0.4, G=G, G_prime=G_prime, mu_A=law.mean)
        params = ChannelParams(P=10.0, c=2.0)
        assert row.inner_bits == br.inner_mass_half(params, law, mp).bits
        assert row.outer_bits == br.outer_mass_half(params, mp).bits
        assert row.claimed_gap == pytest.approx(G_prime - G + 3.0, abs=1e-12)
        assert row.inner_bits == pytest.approx(0.7476, abs=1e-4)
        assert not row.assumptions_ok

    def test_phase_branches_populated(self):
        spec = SweepSpec("phase-binomial", P_list=(3.0,), c2_list=(0.25, 16.0))
        rows = run_sweep(spec)
        assert rows[0].outer_bits == 4.0
        assert rows[1].outer_bits == 3.5
        assert {r.branch_outer for r in rows} == {
            "weak-interference", "strong-interference"}

    def test_no_rcsi_without_dirt_falls_back_to_awgn(self):
        spec = SweepSpec("no-rcsi", dist="gaussian", P_list=(3.0, 15.0), c2_list=(0.0,))
        for r in run_sweep(spec):
            assert r.outer_bits == 0.5 * math.log2(1 + r.P)
            assert r.inner_bits == r.outer_bits
            assert r.branch_outer == "awgn-fallback"
            assert r.assumptions_ok is False

    def test_law_constants_computed_once_per_sweep(self, monkeypatch):
        calls = []
        original = br.continuous_interval_params

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(br, "continuous_interval_params", counted)
        spec = SweepSpec("continuous", dist="gaussian", P_list=(1.0, 100.0),
                         c2_list=(1.0, 10.0, 100.0))
        rows = run_sweep(spec)
        assert len(rows) == 6
        assert len(calls) == 1

    def test_spec_validation(self):
        with pytest.raises(SpecInvalid):
            SweepSpec("nope")
        with pytest.raises(SpecInvalid):
            SweepSpec("no-rcsi", dist="gaussian", P_list=())
        with pytest.raises(SpecInvalid):
            SweepSpec("no-rcsi", dist="gaussian", P_list=(-1.0,))
        with pytest.raises(SpecInvalid):
            run_sweep(SweepSpec("no-rcsi"))


class TestVerify:
    def test_summary_counts(self):
        summary, rows = verify_claims("mass-half")
        assert summary["points"] == len(rows)
        assert summary["satisfied"] + summary["violated"] == summary["checked"]
        assert math.isfinite(summary["worst_gap"])

    def test_all_preset_runs(self):
        summary, rows = verify_claims("all")
        assert summary["points"] > 30
        assert {r.theorem for r in rows} == {
            "no-rcsi", "mass-half", "strong", "phase-binomial"}

    def test_unknown_preset_rejected(self):
        with pytest.raises(SpecInvalid, match="unknown preset 'gaussian-smoke'"):
            verify_claims("gaussian-smoke")

    def test_violations_are_data(self):
        # the asymptotic no-rcsi constant is approached from above, so finite
        # grid points exceed it; they must be reported, not dropped
        summary, rows = verify_claims("no-rcsi")
        assert summary["violated"] > 0
        assert any(not r.satisfied for r in rows)


class TestEmit:
    def test_csv_shape(self):
        data = emit(run_sweep(GAUSSIAN_SMOKE), "csv").decode()
        lines = data.strip().split("\n")
        assert len(lines) == 10
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert all(len(line.split(",")) == 13 for line in lines)

    def test_deterministic_bytes(self):
        rows = run_sweep(GAUSSIAN_SMOKE)
        for fmt in ("csv", "json", "plotdata", "svg"):
            assert emit(rows, fmt) == emit(rows, fmt)

    def test_json_parses(self):
        rows = run_sweep(GAUSSIAN_SMOKE)
        payload = json.loads(emit(rows, "json"))
        assert len(payload) == 9
        assert list(payload[0].keys()) == list(CSV_COLUMNS)

    def test_plotdata_header(self):
        data = emit(run_sweep(GAUSSIAN_SMOKE), "plotdata").decode()
        assert data.startswith("# theorem ")

    def test_svg_well_formed(self):
        svg = emit(run_sweep(GAUSSIAN_SMOKE), "svg")
        xml.dom.minidom.parseString(svg)

    def test_float_precision(self):
        rows = run_sweep(GAUSSIAN_SMOKE)
        line = emit(rows, "csv").decode().strip().split("\n")[1]
        inner = line.split(",")[7]
        assert float(inner) == pytest.approx(rows[0].inner_bits, rel=1e-11)

    def test_rejects_bad_format_and_empty(self):
        rows = run_sweep(GAUSSIAN_SMOKE)
        with pytest.raises(UnsupportedFormat):
            emit(rows, "yaml")
        with pytest.raises(UnsupportedFormat):
            emit([], "csv")
