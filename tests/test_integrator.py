"""Time stepping: initial data, the semi-implicit step, and the adaptive march."""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from grushinlab import (BoxDomain, GrushinSpace, Power, SimConfig,
                        assemble_grushin, build_grid, build_initial_condition,
                        integrator, l2_norm_sq, parse_expression, run,
                        smallest_eigenpair)
from grushinlab.diagnostics import EnergyTracker
from grushinlab.integrator import InitialCondition, SimState, step
from grushinlab.linalg import SeparableSolver
from grushinlab.operators import SparseMatrix


def small_setup(cells=(8, 8), gamma=0.0, bounds=((0.0, 1.0), (0.0, 1.0))):
    space = GrushinSpace(1, 1, gamma)
    grid = build_grid(BoxDomain(list(bounds)), cells)
    A = assemble_grushin(grid, space)
    return space, grid, A


class TestInitialCondition:
    def test_validation(self):
        with pytest.raises(ValueError):
            InitialCondition(kind="gaussian")
        with pytest.raises(ValueError):
            InitialCondition(kind="product_sine", amplitude=0.0)
        with pytest.raises(ValueError):
            InitialCondition(kind="product_sine", amplitude=-1.0)
        with pytest.raises(ValueError):
            InitialCondition(kind="file")

    def test_non_finite_amplitude_rejected(self):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match="amplitude must be finite"):
                InitialCondition(kind="product_sine", amplitude=value)

    def test_product_sine_peaks_at_center(self):
        space, grid, _ = small_setup()
        u = build_initial_condition(
            grid, InitialCondition(kind="product_sine"))
        center = np.ravel_multi_index((3, 3), grid.shape)  # node (0.5, 0.5)
        assert u[center] == pytest.approx(1.0)
        assert np.abs(u).max() == pytest.approx(1.0)
        assert np.all(u >= 0.0)

    def test_product_sine_amplitude_scales(self):
        space, grid, _ = small_setup()
        one = build_initial_condition(
            grid, InitialCondition(kind="product_sine"))
        five = build_initial_condition(
            grid, InitialCondition(kind="product_sine", amplitude=5.0))
        assert np.allclose(five, 5.0 * one)

    def test_eigenmode_scaling_sets_mass(self, unit16):
        u = build_initial_condition(
            unit16.grid, InitialCondition(kind="phi1", amplitude=2.0),
            phi1=unit16.eig.phi1)
        assert l2_norm_sq(unit16.grid, u) == pytest.approx(4.0, rel=1e-10)

    def test_eigenmode_requires_vector(self):
        space, grid, _ = small_setup()
        with pytest.raises(ValueError, match="eigenvector"):
            build_initial_condition(grid, InitialCondition(kind="phi1"))

    def test_eigenmode_with_negative_entries_rejected(self):
        # Dips below -1e-10 * max|phi1| are not rounding: they are refused,
        # while shallower ones are scrubbed to zero.
        space, grid, _ = small_setup()
        ic = InitialCondition(kind="phi1")
        phi = np.ones(grid.N)
        phi[0] = -1e-11
        assert build_initial_condition(grid, ic, phi1=phi)[0] == 0.0
        phi[0] = -1e-9
        with pytest.raises(ValueError, match="negative entries"):
            build_initial_condition(grid, ic, phi1=phi)

    def test_file_round_trip(self, tmp_path):
        space, grid, _ = small_setup()
        values = np.linspace(0.5, 1.0, grid.N)
        path = tmp_path / "u0.txt"
        np.savetxt(path, values)
        u = build_initial_condition(
            grid, InitialCondition(kind="file", amplitude=2.0, path=str(path)))
        assert np.allclose(u, 2.0 * values)

    def test_file_errors(self, tmp_path):
        space, grid, _ = small_setup()

        def load(name, values):
            path = tmp_path / name
            np.savetxt(path, values)
            ic = InitialCondition(kind="file", path=str(path))
            return build_initial_condition(grid, ic)

        with pytest.raises(ValueError, match="negative"):
            load("neg.txt", np.full(grid.N, -1.0))
        with pytest.raises(ValueError, match=str(grid.N)):
            load("short.txt", np.ones(grid.N - 1))
        with pytest.raises(ValueError, match="zero"):
            load("zero.txt", np.zeros(grid.N))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                load("bad.txt", np.where(np.arange(grid.N) == 3, bad, 1.0))


class TestStep:
    def test_eigenmode_one_step_factor(self, unit16):
        # For u = phi1 the scheme contracts by exactly (1+lam)/(1+lam+dt*lam).
        zero = parse_expression("0*u")
        cfg = SimConfig(cg_tol=1e-12)
        dt = cfg.dt_init
        state = SimState(t=0.0, u=unit16.eig.phi1.copy(), dt=dt, steps=0)
        out = step(state, unit16.A, zero, cfg)
        lam = unit16.lam
        factor = (1.0 + lam) / (1.0 + lam + dt * lam)
        assert out.status == "running"
        assert out.t == pytest.approx(dt)
        assert np.allclose(out.u, factor * state.u, atol=10.0 * cfg.cg_tol)

    def test_zero_state_stays_zero(self):
        space, grid, A = small_setup()
        cfg = SimConfig()
        state = SimState(t=0.0, u=np.zeros(grid.N), dt=1e-3, steps=0)
        out = step(state, A, Power(3.0, 1.0), cfg)
        assert out.status == "running"
        assert np.all(out.u == 0.0)

    def test_dt_grows_on_slow_change(self, unit16):
        zero = parse_expression("0*u")
        cfg = SimConfig(dt_init=1e-4, dt_min=1e-12, dt_max=1.0)
        state = SimState(t=0.0, u=unit16.eig.phi1.copy(), dt=1e-4, steps=0)
        out = step(state, unit16.A, zero, cfg)
        assert out.dt == pytest.approx(1.5e-4)

    def test_dt_growth_capped_at_dt_max(self, unit16):
        zero = parse_expression("0*u")
        cfg = SimConfig(dt_init=1e-4, dt_max=1.2e-4)
        state = SimState(t=0.0, u=unit16.eig.phi1.copy(), dt=1e-4, steps=0)
        out = step(state, unit16.A, zero, cfg)
        assert out.dt == pytest.approx(1.2e-4)

    def test_dt_halves_on_fast_change(self):
        space, grid, A = small_setup()
        ic = build_initial_condition(
            grid, InitialCondition(kind="product_sine", amplitude=100.0))
        cfg = SimConfig(dt_init=1e-3)
        state = SimState(t=0.0, u=ic, dt=1e-3, steps=0)
        out = step(state, A, Power(3.0, 1.0), cfg)
        assert out.status == "running"
        assert out.steps == 1
        assert out.dt < 1e-3
        assert out.t == pytest.approx(out.dt)

    def test_dt_exhaustion_declares_blowup(self):
        space, grid, A = small_setup(cells=(4, 4))
        ic = build_initial_condition(
            grid, InitialCondition(kind="product_sine", amplitude=1e4))
        cfg = SimConfig(dt_init=1e-3, dt_min=1e-6)
        state = SimState(t=0.0, u=ic, dt=1e-3, steps=0)
        out = step(state, A, Power(3.0, 1.0), cfg)
        assert out.status == "blowup"
        assert out.t_blow == 0.0
        assert "dt_min" in out.reason

    def test_domain_exit_is_rejected(self):
        # f is non-finite past u = 2: the step from sup u = 1.9 at dt = 0.01
        # lands past it, so it is rejected and retried at half the size.
        space, grid, A = small_setup(cells=(4, 4))
        ic = build_initial_condition(
            grid, InitialCondition(kind="product_sine", amplitude=1.9))
        nl = parse_expression("100*u^3*(2-u)^0.5")
        state = SimState(t=0.0, u=ic, dt=1e-2, steps=0)
        out = step(state, A, nl, SimConfig(dt_init=1e-2, dt_max=1e-2))
        assert (out.status, out.steps, out.attempts, out.rejected) == (
            "running", 1, 2, 1)
        assert out.t == 5e-3
        assert 1.9 < out.u.max() < 2.0
        # With no room to halve, the exit ends the march failed, not blowup.
        stuck = step(state, A, nl, SimConfig(dt_init=1e-2, dt_min=1e-2,
                                             dt_max=1e-2))
        assert (stuck.status, stuck.rejected, stuck.t_blow) == ("failed", 1,
                                                                None)
        assert stuck.reason.startswith(
            "expression '100*u^3*(2-u)^0.5' is non-finite at u = 2.0")
        assert stuck.u is state.u

    def test_every_candidate_is_checked_and_its_f_handed_on(self,
                                                             monkeypatch):
        # Whatever the source, a step evaluates f at the old state and at
        # each candidate that passes the change test; the accepted state
        # carries that f, and the next step reuses it.
        space, grid, A = small_setup()
        ic = build_initial_condition(
            grid, InitialCondition(kind="product_sine", amplitude=100.0))
        calls = []
        f_values = integrator.f_values

        def counted(nl, u):
            calls.append(nl)
            return f_values(nl, u)
        monkeypatch.setattr(integrator, "f_values", counted)
        state = SimState(t=0.0, u=ic, dt=1e-3, steps=0)
        power = Power(3.0, 1.0)
        out = step(state, A, power, SimConfig(dt_init=1e-3))
        assert out.rejected > 0 and len(calls) == 2
        assert out.f_at[0] is out.u
        assert out.f_at[1].tobytes() == f_values(power, out.u).tobytes()
        again = step(out, A, power, SimConfig(dt_init=1e-3))
        assert len(calls) == 3 and again.steps == 2
        calls.clear()
        nl = parse_expression("u^3")
        out = step(state, A, nl, SimConfig(dt_init=1e-3))
        assert out.rejected > 0 and len(calls) == 2
        assert out.f_at[0] is out.u
        assert out.f_at[1].tobytes() == f_values(nl, out.u).tobytes()
        again = step(out, A, nl, SimConfig(dt_init=1e-3))
        assert len(calls) == 3 and again.steps == 2
        # A state whose u is replaced evaluates f at the new u.
        moved = step(replace(out, u=0.5 * out.u), A, nl,
                     SimConfig(dt_init=1e-3))
        assert len(calls) == 5 and moved.steps == 2

    def test_one_product_per_step_and_the_sup_norm_carried(self,
                                                            monkeypatch):
        # Every attempt of a step solves with the same (I + L) u, so A u is
        # formed once however many attempts are rejected; the accepted state
        # carries the sup norm of its threshold check, which the next step's
        # change test and the energy record read.
        space, grid, A = small_setup()
        ic = build_initial_condition(
            grid, InitialCondition(kind="product_sine", amplitude=100.0))
        products = []
        apply = integrator.apply

        def counted(A, u):
            products.append(u)
            return apply(A, u)
        monkeypatch.setattr(integrator, "apply", counted)
        state = SimState(t=0.0, u=ic, dt=1e-3, steps=0)
        out = step(state, A, Power(3.0, 1.0), SimConfig(dt_init=1e-3))
        assert out.rejected > 0 and out.attempts == out.rejected + 1
        assert len(products) == 1 and products[0] is ic
        assert out.sup_at[0] is out.u
        assert out.supnorm == float(np.abs(out.u).max())
        # The change test and the record read the carried value: a planted
        # one shows through.  A huge sup norm makes the change look small,
        # so dt grows where it would not.
        cfg = SimConfig(dt_init=1e-3)
        assert step(out, A, Power(3.0, 1.0), cfg).dt == out.dt
        planted = replace(out, sup_at=(out.u, 1e300))
        assert step(planted, A, Power(3.0, 1.0), cfg).dt == 1.5 * out.dt
        tracker = EnergyTracker(grid, space, Power(3.0, 1.0))
        tracker(replace(out, sup_at=(out.u, 123.0)))
        assert tracker.records[-1].supnorm == 123.0

    def test_hand_built_state_takes_its_sup_norm_on_first_use(self):
        u = np.array([0.5, -2.0, 1.0])
        state = SimState(t=0.0, u=u, dt=1e-3, steps=0)
        assert state.sup_at is None
        assert state.supnorm == 2.0
        assert state.sup_at[0] is u and state.sup_at[1] == 2.0
        # A state whose u is replaced measures the new u.
        moved = replace(state, u=3.0 * u)
        assert moved.supnorm == 6.0 and moved.sup_at[0] is moved.u

    def test_threshold_declares_blowup(self):
        space, grid, A = small_setup(cells=(4, 4),
                                     bounds=((0.0, 2.0), (0.0, 2.0)))
        ic = build_initial_condition(
            grid, InitialCondition(kind="product_sine", amplitude=8.0))
        cfg = SimConfig(dt_init=1e-3, blowup_threshold=8.05)
        state = SimState(t=0.0, u=ic, dt=1e-3, steps=0)
        out = state
        for _ in range(2000):
            out = step(out, A, Power(3.0, 1.0), cfg)
            if out.status != "running":
                break
        assert out.status == "blowup"
        assert "threshold" in out.reason
        assert out.t_blow == out.t

    def test_terminal_state_is_inert(self):
        space, grid, A = small_setup(cells=(4, 4))
        done = SimState(t=0.5, u=np.ones(grid.N), dt=1e-3, steps=7,
                        status="completed")
        assert step(done, A, Power(3.0, 1.0), SimConfig()) is done

    def test_dt_cap_limits_attempt_and_controller_carries_on(self, unit16):
        # The capped step changes u little, so the next dt grows from the
        # capped 1e-5, not from the state's 1e-2.
        zero = parse_expression("0*u")
        cfg = SimConfig(dt_init=1e-3, dt_max=1e-2)
        state = SimState(t=0.0, u=unit16.eig.phi1.copy(), dt=1e-2, steps=0)
        out = step(state, unit16.A, zero, cfg, dt_cap=1e-5)
        assert out.t == pytest.approx(1e-5)
        assert out.dt == pytest.approx(1.5e-5)

    def test_exact_solver_without_being_passed_one(self, monkeypatch):
        space, grid, A = small_setup(cells=(12, 10), gamma=1.0,
                                     bounds=((0.0, 2.0), (-1.0, 1.0)))
        u0 = build_initial_condition(
            grid, InitialCondition(kind="product_sine", amplitude=2.0))
        state = SimState(t=0.0, u=u0, dt=1e-2, steps=0)
        nl, cfg = Power(3.0, 1.0), SimConfig()
        assert A.solver.exact
        want = step(state, A, nl, cfg)

        def no_cg(*args, **kwargs):
            raise AssertionError("step ran CG on an m = 1 operator")
        monkeypatch.setattr(integrator, "cg_solve", no_cg)
        got = step(state, A, nl, cfg)
        assert got.u.tobytes() == want.u.tobytes()
        assert (got.t, got.dt, got.steps, got.status) == (
            want.t, want.dt, want.steps, want.status)

    def test_steps_on_one_operator_share_its_factorization(self, monkeypatch):
        # A caller marching with step() directly keeps A.solver, and so its
        # factorization, from one call to the next.
        space, grid, A = small_setup()
        u0 = build_initial_condition(
            grid, InitialCondition(kind="product_sine"))
        state = SimState(t=0.0, u=u0, dt=1e-3, steps=0)
        factored = []
        factorize = SeparableSolver._factorize

        def counting_factorize(solver, c, shift):
            factored.append((c, shift))
            return factorize(solver, c, shift)
        monkeypatch.setattr(SeparableSolver, "_factorize", counting_factorize)
        first = step(state, A, Power(3.0, 1.0), SimConfig())
        second = step(state, A, Power(3.0, 1.0), SimConfig())
        assert first.attempts == second.attempts == 1
        assert second.u.tobytes() == first.u.tobytes()
        assert factored == [(1.0 + 1e-3, 1.0)]

    def test_counts_attempts_rejections_and_iterations(self):
        space, grid, A = small_setup()
        ic = build_initial_condition(
            grid, InitialCondition(kind="product_sine", amplitude=100.0))
        state = SimState(t=0.0, u=ic, dt=1e-3, steps=0, attempts=5,
                         rejected=2, solver_iterations=7)
        out = step(state, A, Power(3.0, 1.0), SimConfig(dt_init=1e-3))
        assert out.steps == 1
        assert out.rejected > 2
        assert out.attempts == 5 + 1 + (out.rejected - 2)
        assert out.solver_iterations == 7      # exact m = 1 solves
        assert out.dt_accepted == (out.t, out.t)
        again = step(replace(out, dt_accepted=(0.5 * out.t, 0.5 * out.t)), A,
                     Power(3.0, 1.0), SimConfig(dt_init=1e-3))
        assert again.dt_accepted[0] == 0.5 * out.t
        assert again.dt_accepted[1] == pytest.approx(again.t - out.t,
                                                     rel=1e-12)
        blown = step(replace(state, u=1e2 * ic), A, Power(3.0, 1.0),
                     SimConfig(dt_init=1e-3, dt_min=1e-6))
        assert blown.status == "blowup"
        assert blown.attempts - 5 == blown.rejected - 2 >= 1
        assert blown.dt_accepted is None

    def test_solve_failure_fails_the_step(self):
        # f(1e200) overflows, and the separable solve rejects the non-finite
        # right-hand side: the step fails on its first attempt.
        with pytest.warns(UserWarning, match="straddling"):
            space, grid, A = small_setup(gamma=1.0,
                                         bounds=((-1.0, 1.0), (-1.0, 1.0)))
        state = SimState(t=0.0, u=np.full(grid.N, 1e200), dt=1e-3, steps=0)
        with np.errstate(over="ignore"):
            out = step(state, A, Power(3.0, 1.0), SimConfig())
        assert out.status == "failed"
        assert out.reason.startswith("linear solve: ")
        assert (out.attempts, out.rejected) == (1, 0)


class TestRun:
    def test_march_tracks_semidiscrete_decay(self, unit16):
        # Fixed-dt eigenmode march against u(t) = e^{-lam t/(1+lam)} phi1;
        # halving dt halves the error (first-order accuracy).
        zero = parse_expression("0*u")
        lam = unit16.lam
        t_end = 0.1
        errors = []
        for dt in (1e-3, 5e-4):
            cfg = SimConfig(t_end=t_end, dt_init=dt, dt_min=dt, dt_max=dt,
                            record_every=10**6)
            final, _ = run(unit16.A, zero, unit16.eig.phi1.copy(), cfg)
            exact = np.exp(-lam * t_end / (1.0 + lam)) * unit16.eig.phi1
            errors.append(float(np.abs(final.u - exact).max()))
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.2)

    def test_lands_on_t_end(self, unit16):
        zero = parse_expression("0*u")
        cfg = SimConfig(t_end=0.01, dt_init=3e-3, dt_min=1e-6, dt_max=3e-3)
        final, _ = run(unit16.A, zero, unit16.eig.phi1.copy(), cfg)
        assert final.status == "completed"
        assert abs(final.t - 0.01) <= 1e-10

    def test_record_times_and_counts(self, unit16):
        zero = parse_expression("0*u")
        cfg = SimConfig(t_end=0.01, dt_init=1e-3, dt_min=1e-3, dt_max=1e-3,
                        record_every=3)
        final, records = run(unit16.A, zero, unit16.eig.phi1.copy(), cfg)
        t = np.array([r.t for r in records])
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0.0)
        assert t[-1] == pytest.approx(final.t)
        assert len(records) <= final.steps + 2
        assert len(records) >= final.steps // 3

    def test_short_horizon_completes_before_blowup(self):
        space, grid, A = small_setup(cells=(8, 8),
                                     bounds=((0.0, 2.0), (0.0, 2.0)))
        ic = build_initial_condition(
            grid, InitialCondition(kind="product_sine", amplitude=5.0))
        cfg = SimConfig(t_end=1e-6, dt_init=1e-3, dt_min=1e-12,
                        blowup_threshold=1e300)
        final, _ = run(A, Power(3.0, 1.0), ic, cfg)
        assert final.status == "completed"
        assert final.steps >= 1

    def test_determinism(self, unit16):
        zero = parse_expression("0*u")
        cfg = SimConfig(t_end=0.02, dt_init=1e-3)
        outs = []
        for _ in range(2):
            final, records = run(unit16.A, zero, unit16.eig.phi1.copy(), cfg)
            outs.append((final, records))
        a, b = outs
        assert np.array_equal(a[0].u, b[0].u)
        assert a[0].t == b[0].t
        assert [r.calE for r in a[1]] == [r.calE for r in b[1]]

    def test_wrong_size_initial_data_rejected(self, unit16):
        zero = parse_expression("0*u")
        with pytest.raises(ValueError, match="nodes"):
            run(unit16.A, zero, np.ones(unit16.grid.N + 1), SimConfig())


class TestSimConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(t_end=0.0)
        with pytest.raises(ValueError):
            SimConfig(dt_init=1e-3, dt_min=1e-2, dt_max=1e-1)
        with pytest.raises(ValueError):
            SimConfig(dt_init=1.0, dt_max=1e-2)
        with pytest.raises(ValueError):
            SimConfig(blowup_threshold=0.0)
        with pytest.raises(ValueError):
            SimConfig(step_change_low=0.2, step_change_high=0.1)
        with pytest.raises(ValueError):
            SimConfig(cg_tol=0.0)
        with pytest.raises(ValueError):
            SimConfig(record_every=0)

    @pytest.mark.parametrize("name", [f.name for f in fields(SimConfig)])
    def test_non_finite_value_rejected(self, name):
        # A NaN or infinite horizon once let the march run forever.
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SimConfig(**{name: value})


def _march_against_plain_cg(gamma, cells):
    """The m = 2 march of ``run`` on an assembled operator and on its
    hand-built copy, whose solver is an identity stub, so that it runs
    plain CG."""
    space = GrushinSpace(2, 1, gamma)
    grid = build_grid(BoxDomain([(-1.0, 1.0)] * 3), (cells,) * 3)
    A = assemble_grushin(grid, space)
    u0 = build_initial_condition(
        grid, InitialCondition(kind="product_sine", amplitude=2.0))
    nl, cfg = Power(3.0, 1.0), SimConfig(t_end=0.2, dt_init=1e-2)
    fast, fast_records = run(A, nl, u0, cfg)
    hand_built = SparseMatrix(A.n, A.diagonals, grid=A.grid, space=A.space)
    vars(hand_built)["solver"] = SimpleNamespace(exact=False,
                                                 solve=lambda r, c: r)
    cg, cg_records = run(hand_built, nl, u0, cfg)
    assert (fast.steps, fast.status, fast.attempts) == (cg.steps, cg.status,
                                                        cg.attempts)
    assert [r.t for r in fast_records] == [r.t for r in cg_records]
    assert np.allclose(fast.u, cg.u, rtol=0.0, atol=1e-8 * np.abs(cg.u).max())
    for a, b in zip(fast_records, cg_records):
        assert a.calE == pytest.approx(b.calE, rel=1e-8)
    return A, fast, cg


def test_m2_march_with_pcg_matches_plain_cg():
    # Preconditioning changes how each step is solved, not what it solves:
    # the controller sees the same steps and the records agree to the CG
    # tolerance.  At gamma = 1.5 the separable solver only preconditions;
    # plain CG needs more iterations as the grid is refined and PCG does
    # not, so 12 cells per axis show the gap.
    A, pcg, cg = _march_against_plain_cg(1.5, 12)
    assert not A.solver.exact
    assert 0 < pcg.solver_iterations < cg.solver_iterations / 4


def test_exact_m2_march_matches_plain_cg():
    # At gamma = 1 the solver inverts the step matrix itself, origin node
    # included, so no step iterates.
    A, exact, cg = _march_against_plain_cg(1.0, 8)
    assert A.solver.exact and A.solver.q is not None
    assert exact.solver_iterations == 0 < cg.solver_iterations
