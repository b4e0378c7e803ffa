"""Energy records, proof functionals, certification margins, CSV and SVG."""

import math
import struct

import numpy as np
import pytest

from grushinlab import (EnergyRecord, Power, concavity_margin, decay_margin,
                        grushin_energy, integral, l2_norm_sq, read_csv)
from grushinlab.diagnostics import (CSV_HEADER, EnergyTracker,
                                    certified_records, emit_svg_plot,
                                    monotonicity_margin, write_csv)
from grushinlab.integrator import SimState

from oracles import trapezoid_E


def make_records(t, calE, calF=None, M=0.0):
    """Synthetic record series; only t, calE, calF and E matter to the
    margins, and E runs from M as the tracker's would."""
    t = np.asarray(t, dtype=float)
    calE = np.asarray(calE, dtype=float)
    calF = np.zeros_like(t) if calF is None else np.asarray(calF, dtype=float)
    E = trapezoid_E(t, calE, M)
    return [EnergyRecord(t=float(ti), dt=0.0, l2=ci / 2, grad=ci / 2,
                         calE=float(ci), calF=float(fi), supnorm=1.0,
                         min_u=0.0, E=float(Ei))
            for ti, ci, fi, Ei in zip(t, calE, calF, E)]


class TestFFunctional:
    def test_zero_state_measures_theta_mass(self, unit16):
        grid, space = unit16.grid, unit16.space
        u = np.zeros(grid.N)
        box = integral(grid, np.ones(grid.N))
        tracker = EnergyTracker(grid, space, Power(3.0, 1.0), theta=0.5)
        got = tracker.measure(u)[2]
        assert got == pytest.approx(-0.5 * box, rel=1e-14)

    def test_scaled_eigenmode_closed_form(self, unit16):
        grid, space, lam = unit16.grid, unit16.space, unit16.lam
        phi = unit16.eig.phi1
        quartic = integral(grid, phi**4)
        for c in (0.5, 2.0):
            tracker = EnergyTracker(grid, space, Power(3.0, 1.0), theta=0.0)
            got = tracker.measure(c * phi)[2]
            want = -0.5 * c * c * lam + 0.25 * c**4 * quartic
            assert got == pytest.approx(want, rel=1e-9)

    def test_sign_flips_with_amplitude(self, unit16):
        grid, space = unit16.grid, unit16.space
        phi = unit16.eig.phi1
        nl = Power(3.0, 1.0)
        tracker = EnergyTracker(grid, space, nl, theta=0.0)
        assert tracker.measure(10.0 * phi)[2] > 0.0
        assert tracker.measure(0.1 * phi)[2] < 0.0


class TestESeries:
    """The running E of the tracker's records: M plus the trapezoid
    integral of calE over the recorded times."""

    @staticmethod
    def track(unit16, times, M):
        """Records of one fixed state observed at the given times."""
        tracker = EnergyTracker(unit16.grid, unit16.space, Power(3.0, 1.0),
                                M=M)
        for t in times:
            tracker(SimState(t=float(t), u=unit16.eig.phi1, dt=1e-3, steps=0))
        return tracker.records

    def test_single_record_is_offset(self, unit16):
        recs = self.track(unit16, [0.0], M=3.5)
        assert [r.E for r in recs] == [3.5]

    def test_constant_integrand(self, unit16):
        t = np.linspace(0.0, 2.0, 21)
        recs = self.track(unit16, t, M=1.0)
        calE = recs[0].calE
        E = np.array([r.E for r in recs])
        assert np.allclose(E, 1.0 + calE * t, rtol=0.0,
                           atol=1e-12 * (1.0 + 2.0 * calE))

    def test_unsorted_records_rejected(self):
        recs = make_records([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            concavity_margin(recs, sigma=0.5)
        dup = make_records([0.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            concavity_margin(dup, sigma=0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decay_margin([], rate=1.0)

    def test_eigenmode_matches_closed_form(self, eigenmode_run):
        # calE decays like e^{-2 lam t/(1+lam)}, so its running integral has
        # the closed form M + calE0 (1+lam)/(2 lam) (1 - e^{-2 lam t/(1+lam)}).
        lam = eigenmode_run.lam
        recs = eigenmode_run.records
        t = np.array([r.t for r in recs])
        E = np.array([r.E for r in recs])
        calE0 = recs[0].calE
        rate = 2.0 * lam / (1.0 + lam)
        want = calE0 / rate * (1.0 - np.exp(-rate * t))
        assert np.allclose(E, want, rtol=1e-3)

    def test_telescoping_against_running_sum(self, eigenmode_run):
        recs = eigenmode_run.records
        E = np.array([r.E for r in recs])
        scale = float(np.abs(E).max())
        for j in range(1, len(recs)):
            inc = 0.5 * (recs[j].calE + recs[j - 1].calE) * (recs[j].t
                                                             - recs[j - 1].t)
            assert abs(E[j] - E[j - 1] - inc) <= 1e-13 * max(1.0, scale)

    def test_tracker_E_field_matches_series(self, eigenmode_run):
        recs = eigenmode_run.records
        E = trapezoid_E([r.t for r in recs], [r.calE for r in recs], 0.0)
        tracked = np.array([r.E for r in recs])
        assert np.allclose(tracked, E, rtol=1e-12, atol=1e-14)


class TestConcavityMargin:
    def test_exponential_profile_is_negative(self):
        # E = M e^{ct} sits exactly on the ODE boundary at sigma = 0, so any
        # positive sigma drives the defect strictly negative.
        c, M = 0.8, 1.0
        t = np.linspace(0.0, 2.0, 501)
        recs = make_records(t, c * M * np.exp(c * t), M=M)
        assert concavity_margin(recs, sigma=0.5) < 0.0

    def test_extremal_profile_is_nonnegative_up_to_sampling(self):
        # E = M (1 - a t)^{-1/sigma} makes the defect identically zero; the
        # centered difference leaves only an O(h^2) residue.
        sigma, M, a = 0.5, 1.0, 0.1
        t = np.linspace(0.0, 5.0, 2001)
        calE = (a * M / sigma) * (1.0 - a * t) ** (-1.0 / sigma - 1.0)
        recs = make_records(t, calE, M=M)
        margin = concavity_margin(recs, sigma=sigma)
        scale = float(np.max((1.0 + sigma) * calE**2))
        assert margin >= -1e-6 * scale
        assert abs(margin) <= 1e-6 * scale

    def test_constant_integrand_exact_value(self):
        t = np.linspace(0.0, 1.0, 11)
        recs = make_records(t, np.full_like(t, 3.0), M=2.0)
        got = concavity_margin(recs, sigma=0.5)
        assert got == -(1.0 + 0.5) * 9.0

    def test_needs_three_records(self):
        recs = make_records([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="3"):
            concavity_margin(recs, sigma=0.5)


class TestMonotonicityMargin:
    def test_single_pair(self):
        recs = make_records([0.0, 1.0], [1.0, 1.0], calF=[0.0, 1.0])
        assert monotonicity_margin(recs) == 1.0

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="2"):
            monotonicity_margin(make_records([0.0], [1.0]))

    def test_eigenmode_is_nondecreasing(self, eigenmode_run):
        # With f = 0 and theta = 0, calF = -grad/2 rises toward 0 as u decays.
        assert monotonicity_margin(eigenmode_run.records) >= -1e-8

    def test_picks_the_worst_pair(self):
        recs = make_records([0.0, 1.0, 2.0], [1.0, 1.0, 1.0],
                            calF=[0.0, 2.0, 1.5])
        assert monotonicity_margin(recs) == -0.5


class TestDecayMargin:
    def test_rate_zero_on_nonincreasing_energy(self):
        t = np.linspace(0.0, 1.0, 11)
        recs = make_records(t, np.exp(-2.0 * t))
        assert decay_margin(recs, rate=0.0) == 1.0

    def test_eigenmode_certifies_its_exact_rate(self, eigenmode_run):
        lam = eigenmode_run.lam
        rate = 2.0 * lam / (1.0 + lam)
        assert decay_margin(eigenmode_run.records, rate) == \
            pytest.approx(1.0, abs=1e-3)

    def test_eigenmode_rejects_overclaimed_rate(self, eigenmode_run):
        lam = eigenmode_run.lam
        rate = 2.0 * lam / (1.0 + lam) + 1.0
        assert decay_margin(eigenmode_run.records, rate) > 1.0

    def test_monotone_in_rate(self):
        t = np.linspace(0.0, 3.0, 31)
        recs = make_records(t, np.exp(-1.5 * t))
        rates = [-1.0, 0.0, 0.7, 1.5, 2.0, 5.0]
        margins = [decay_margin(recs, r) for r in rates]
        assert margins == sorted(margins)

    def test_zero_initial_energy_rejected(self):
        recs = make_records([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="calE"):
            decay_margin(recs, rate=1.0)


class TestCertifiedRecords:
    def test_blowup_drops_final_three(self):
        recs = make_records(np.arange(10.0), np.ones(10))
        kept = certified_records(recs, "blowup")
        assert kept == recs[:-3]

    def test_other_statuses_keep_all(self):
        recs = make_records(np.arange(5.0), np.ones(5))
        for status in ("completed", "running", "failed"):
            kept = certified_records(recs, status)
            assert kept == recs
            assert kept is not recs

    def test_short_blowup_list_empties(self):
        recs = make_records(np.arange(3.0), np.ones(3))
        assert certified_records(recs, "blowup") == []


class TestFPrimeIdentity:
    def test_difference_quotients_match(self, eigenmode_run):
        # d(calF)/dt equals the instantaneous dissipation
        # integral(u_t^2) + grushin_energy(u_t) along the flow.
        grid, space = eigenmode_run.grid, eigenmode_run.space
        recs, states = eigenmode_run.records, eigenmode_run.states
        assert len(states) == len(recs)
        for i in range(0, len(recs) - 1, 293):
            t0, u0 = states[i]
            t1, u1 = states[i + 1]
            u_t = (u1 - u0) / (t1 - t0)
            lhs = (recs[i + 1].calF - recs[i].calF) / (t1 - t0)
            rhs = l2_norm_sq(grid, u_t) + grushin_energy(grid, space, u_t)
            assert lhs == pytest.approx(rhs, rel=0.1)


class TestCsv:
    def test_empty_records_write_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"
        assert read_csv(path) == []

    def test_one_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        write_csv(make_records([0.0], [1.0]), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_round_trip_is_bit_exact(self, tmp_path):
        exotic = [
            EnergyRecord(t=0.0, dt=5e-324, l2=1.0 / 3.0, grad=math.pi * 1e17,
                         calE=1.7976931348623157e308, calF=-0.0,
                         supnorm=1e-300, min_u=-2.5e-17, E=123456789.12345679),
            EnergyRecord(t=1e-16, dt=1e-2, l2=2.0, grad=3.0, calE=5.0,
                         calF=0.1, supnorm=7.0, min_u=0.0, E=0.30000000000000004),
        ]
        path = tmp_path / "exotic.csv"
        write_csv(exotic, path)
        back = read_csv(path)
        fields = CSV_HEADER.split(",")
        for orig, rt in zip(exotic, back):
            for f in fields:
                a = struct.pack("<d", getattr(orig, f))
                b = struct.pack("<d", getattr(rt, f))
                assert a == b, f"field {f} changed across round trip"

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_csv(make_records([0.0, 1.0], [1.0, 2.0]), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

    def test_read_rejects_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(CSV_HEADER + "\n1.0,2.0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_csv(path)


class TestSvg:
    def test_single_field_single_polyline(self, tmp_path):
        path = tmp_path / "one.svg"
        emit_svg_plot(make_records([0.0, 1.0], [1.0, 2.0]), ["calE"], path)
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")

    def test_single_record_plots_at_the_centre(self, tmp_path):
        # One record spans no range in t or in the field; both ranges widen
        # by 0.5 each way, which puts the lone point mid-plot.
        path = tmp_path / "single.svg"
        emit_svg_plot(make_records([0.25], [2.0]), ["calE"], path)
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert 'points="425.00,245.00"' in text

    def test_one_polyline_per_field(self, tmp_path):
        path = tmp_path / "three.svg"
        recs = make_records([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        emit_svg_plot(recs, ["calE", "l2", "grad"], path)
        assert path.read_text().count("<polyline") == 3

    def test_log_axis_for_wide_positive_span(self, tmp_path):
        path = tmp_path / "log.svg"
        t = np.linspace(0.0, 3.0, 16)
        recs = make_records(t, 10.0 ** (2.0 * t))  # six decades
        emit_svg_plot(recs, ["calE"], path)
        assert "log10 calE" in path.read_text()

    def test_linear_axis_for_narrow_span(self, tmp_path):
        path = tmp_path / "lin.svg"
        recs = make_records([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        emit_svg_plot(recs, ["calE"], path)
        assert "log10" not in path.read_text()

    def test_linear_axis_when_values_cross_zero(self, tmp_path):
        path = tmp_path / "signed.svg"
        recs = make_records([0.0, 1.0, 2.0], [1.0, 2.0, 3.0],
                            calF=[-1.0, 10.0, 1e5])
        emit_svg_plot(recs, ["calF"], path)
        assert "log10" not in path.read_text()
