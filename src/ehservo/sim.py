"""Fixed-step multirate closed-loop executor.

The plant integrates with classical RK4 at the fast rate while the controller
runs at an integer fraction of it under zero-order hold. Every control sample
appends one row to the result; the finished series is scored with tracking
metrics and a stability monitor. Runs are fully deterministic: the same
inputs always produce bit-identical series.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .controller import ControllerParams, ReferencePoint, model_coefficients
from .fuzzy import FuzzyEstimator
from .plant import (
    EPS_CAV,
    BlowUpError,
    PlantParams,
    PlantState,
    dead_zone_output,
    plant_rhs,
    rhs_constants,
)

SUPPLY_MODES = ("constant", "varying")

# control-rate series of a SimResult, in CSV column order
SERIES = ("t", "x", "xd", "xerr", "v", "PL", "u", "uhat", "d", "dhat", "e", "Ps")


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment: rates, reference, supply mode, initial state."""

    duration: float = 120.0
    dt_plant: float = 1.0 / 800.0
    dt_control: float = 1.0 / 400.0
    amplitude: float = 0.5          # reference amplitude [m]
    omega: float = 0.1              # reference angular frequency [rad/s]
    supply_pressure_mode: str = "constant"
    initial_state: PlantState = field(default_factory=PlantState)
    freeze_adaptation: bool = False

    def __post_init__(self):
        for name in ("duration", "dt_plant", "dt_control", "amplitude", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.duration > 0.0:
            raise ValueError(f"duration must be strictly positive, got {self.duration}")
        if not self.dt_plant > 0.0:
            raise ValueError(f"dt_plant must be strictly positive, got {self.dt_plant}")
        if not self.dt_control > 0.0:
            raise ValueError(f"dt_control must be strictly positive, got {self.dt_control}")
        n = self.substeps
        if n < 1 or abs(self.dt_control - n * self.dt_plant) > 1e-9 * self.dt_control:
            raise ValueError(
                f"dt_control ({self.dt_control}) must be an integer multiple of "
                f"dt_plant ({self.dt_plant})"
            )
        if self.n_steps < 1:
            raise ValueError(
                f"duration ({self.duration}) must span at least one control period "
                f"(dt_control = {self.dt_control})"
            )
        if self.supply_pressure_mode not in SUPPLY_MODES:
            raise ValueError(
                f"supply_pressure_mode must be one of {SUPPLY_MODES}, "
                f"got {self.supply_pressure_mode!r}"
            )
        s0 = self.initial_state
        if not (math.isfinite(s0.x) and math.isfinite(s0.v) and math.isfinite(s0.PL)):
            raise ValueError(f"initial_state must be finite, got {s0}")

    @property
    def substeps(self) -> int:
        """Plant integration steps per control period."""
        return round(self.dt_control / self.dt_plant)

    @property
    def n_steps(self) -> int:
        """Control periods in the run, one output row each."""
        return round(self.duration / self.dt_control)


@dataclass(frozen=True)
class MonitorParams:
    """Knobs of the stability monitor and of the metric windows."""

    window: float = 10.0            # RMS window length [s]
    tol: float = 1.05               # allowed window-to-window RMS growth factor
    transient_fraction: float = 0.25
    e_threshold: float = 0.1        # final-window mean |e| bound

    def __post_init__(self):
        if not (math.isfinite(self.window) and self.window > 0.0):
            raise ValueError(f"window must be finite and strictly positive, got {self.window}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and strictly positive, got {self.tol}")
        if not (math.isfinite(self.e_threshold) and self.e_threshold >= 0.0):
            raise ValueError(f"e_threshold must be finite and non-negative, got {self.e_threshold}")
        if not 0.0 <= self.transient_fraction < 1.0:
            raise ValueError(f"transient_fraction must lie in [0, 1), got {self.transient_fraction}")


@dataclass(frozen=True)
class MonitorReport:
    """Violation counts emitted by the stability monitor."""

    n_windows: int
    window_rms: tuple[float, ...]
    rms_violations: int             # type (i): windowed RMS of e grew
    final_window_mean_abs_e: float
    e_threshold: float
    final_mean_ok: bool             # type (ii)
    sign_violations: int            # type (iii): d_hat sign against the active edge


@dataclass(frozen=True)
class SimMetrics:
    """Summary numbers over the standard quarters of the run."""

    rms_xerr_first_quarter: float
    rms_xerr_final_quarter: float
    max_abs_xerr_post_transient: float
    mean_dz_err_first_quarter: float
    mean_dz_err_final_quarter: float


@dataclass
class SimResult:
    """Control-rate time series of one run, the estimator grid it ran on, and its scores."""

    t: np.ndarray
    x: np.ndarray
    xd: np.ndarray
    xerr: np.ndarray
    v: np.ndarray
    PL: np.ndarray
    u: np.ndarray
    uhat: np.ndarray
    d: np.ndarray
    dhat: np.ndarray
    e: np.ndarray
    Ps: np.ndarray
    dt_control: float
    centers: tuple[float, ...]      # membership grid of the run's estimator [V]
    metrics: SimMetrics
    monitor: MonitorReport


def reference_at(t: float, amplitude: float, omega: float) -> ReferencePoint:
    """Sinusoidal position reference and its first three derivatives at time t."""
    wt = omega * t
    s = math.sin(wt)
    c = math.cos(wt)
    return ReferencePoint(
        amplitude * s,
        amplitude * omega * c,
        -amplitude * omega * omega * s,
        -amplitude * omega * omega * omega * c,
    )


def supply_pressure(mode: str, x: float, ps_nominal: float) -> float:
    """Supply pressure [Pa]: fixed, or ps_nominal*(1 + 0.2*sin(x)) with x in metres.

    Over the |x| <= 0.5 m of the default reference the varying law swings by
    about +/-9.6% (0.2*sin(0.5) = 0.0959).
    """
    if mode == "constant":
        return ps_nominal
    if mode == "varying":
        return ps_nominal * (1.0 + 0.2 * math.sin(x))
    raise ValueError(f"unknown supply_pressure_mode: {mode!r}")


def rk4_step(s: PlantState, u: float, dt: float, p: PlantParams) -> PlantState:
    """One classical Runge-Kutta step with the control voltage held constant.

    The load pressure is clamped to [-Ps, Ps] afterwards; beyond that range
    the orifice model stops being physical.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be strictly positive, got {dt}")
    return PlantState(
        *_rk4(s.x, s.v, s.PL, dead_zone_output(u, p), p.Ps, dt, rhs_constants(p))
    )


def _rk4(
    x: float, v: float, PL: float, x_sp: float, Ps: float, dt: float, c: tuple[float, ...]
) -> tuple[float, float, float]:
    """rk4_step over plain floats: spool displacement x_sp held, supply pressure Ps."""
    k1x, k1v, k1p = plant_rhs(x, v, PL, x_sp, Ps, c)
    h = 0.5 * dt
    k2x, k2v, k2p = plant_rhs(x + h * k1x, v + h * k1v, PL + h * k1p, x_sp, Ps, c)
    k3x, k3v, k3p = plant_rhs(x + h * k2x, v + h * k2v, PL + h * k2p, x_sp, Ps, c)
    k4x, k4v, k4p = plant_rhs(x + dt * k3x, v + dt * k3v, PL + dt * k3p, x_sp, Ps, c)
    w = dt / 6.0
    x = x + w * (k1x + 2.0 * (k2x + k3x) + k4x)
    v = v + w * (k1v + 2.0 * (k2v + k3v) + k4v)
    PL = PL + w * (k1p + 2.0 * (k2p + k3p) + k4p)
    if not (math.isfinite(x) and math.isfinite(v) and math.isfinite(PL)):
        raise BlowUpError(f"non-finite state after RK4 step: x={x}, v={v}, PL={PL}")
    if PL > Ps:
        PL = Ps
    elif PL < -Ps:
        PL = -Ps
    return x, v, PL


def run(
    scenario: Scenario,
    plant: PlantParams,
    cp: ControllerParams,
    est: FuzzyEstimator,
    monitor: MonitorParams = MonitorParams(),
) -> SimResult:
    """Execute one closed-loop scenario and score the resulting series.

    Per control period: read the state, build the tracking errors against the
    reference, compute the input gain with the previous sample's voltage sign,
    form the equivalent control, infer the dead-zone compensation, apply the
    control law, adapt the estimator, then hold the voltage over the RK4
    substeps. Raises BlowUpError (carrying the offending time) if the state
    leaves the finite range.

    The loop runs over plain floats. It inlines reference_at, combined_error,
    input_gain_b, equivalent_control, membership, infer, control_law, adapt,
    dead_zone_d and sgn in their exact operation order, so every series equals
    the one those public functions give, bit for bit; the tests replay them.
    """
    n_steps = scenario.n_steps
    n_sub = scenario.substeps
    dt_c = scenario.dt_control
    dt_p = scenario.dt_plant
    varying = scenario.supply_pressure_mode == "varying"
    frozen = scenario.freeze_adaptation

    # reference: each product below is the one reference_at forms first
    A = scenario.amplitude
    omega = scenario.omega
    A_w = A * omega
    A_w2 = -A * omega * omega
    A_w3 = -A * omega * omega * omega
    # controller model, gains and input-gain prefactor (as in input_gain_b)
    a0, a1, a2 = model_coefficients(cp.model)
    m = cp.model
    b_pre = 4.0 * m.beta_e * m.Ap / (m.Vt * m.Mt) * m.Cd * m.w * m.kv
    Mt_m, Bp_m, K_m, Ap_m, Ps_m, rho_m = m.Mt, m.Bp, m.K, m.Ap, m.Ps, m.rho
    c0, c1, kappa, phi = cp.c0, cp.c1, cp.kappa, cp.phi
    # estimator: the consequents are updated in place on the firing rules
    centers = est.centers
    n_rules = len(centers)
    c_first, c_last = centers[0], centers[-1]
    theta = list(est.d_hat)
    # true plant
    c = rhs_constants(plant)
    Ps0, delta_l, delta_r, kv = plant.Ps, plant.delta_l, plant.delta_r, plant.kv

    cols = [[0.0] * n_steps for _ in SERIES]
    T, X, XD, XERR, V, P, U, UHAT, D, DHAT, E, PS = cols
    x, v, PL = scenario.initial_state.x, scenario.initial_state.v, scenario.initial_state.PL
    ps = supply_pressure(scenario.supply_pressure_mode, x, Ps0)
    sign_prev = 0.0

    for k in range(n_steps):
        t = k * dt_c
        x_ddot = plant_rhs(x, v, PL, 0.0, ps, c)[1]  # acceleration(): the force balance
        wt = omega * t
        sin_wt = math.sin(wt)
        cos_wt = math.cos(wt)
        xd = A * sin_wt
        xd_dot = A_w * cos_wt
        xd_ddot = A_w2 * sin_wt
        xd_dddot = A_w3 * cos_wt
        xerr = x - xd
        xerr_dot = v - xd_dot
        xerr_ddot = x_ddot - xd_ddot
        e = c0 * xerr + c1 * xerr_dot + xerr_ddot
        drop = Ps_m - sign_prev * ((Mt_m * x_ddot + Bp_m * v + K_m * x) / Ap_m)
        if drop < EPS_CAV:
            drop = EPS_CAV
        b = b_pre * math.sqrt(drop / rho_m)
        u_hat = (
            a0 * x + a1 * v + a2 * x_ddot + xd_dddot
            - c1 * (x_ddot - xd_ddot) - c0 * (v - xd_dot)
        ) / b
        if not math.isfinite(u_hat):
            raise BlowUpError(f"non-finite equivalent control at t={t:.6g} s", time=t)
        # infer's sum starts at 0.0, and only the firing rules add to it
        if frozen:
            d_hat = 0.0
        elif u_hat <= c_first or u_hat >= c_last:
            # a shoulder rule fires alone
            i = 0 if u_hat <= c_first else n_rules - 1
            pair = False
            d_hat = 0.0 + theta[i]
        else:
            # rules i and i + 1 fire
            i = bisect_right(centers, u_hat) - 1
            frac = (u_hat - centers[i]) / (centers[i + 1] - centers[i])
            psi_i = 1.0 - frac
            pair = True
            d_hat = 0.0 + theta[i] * psi_i + theta[i + 1] * frac
        u = u_hat + d_hat - kappa * e
        if not math.isfinite(u):
            raise BlowUpError(f"non-finite control voltage at t={t:.6g} s", time=t)
        d = delta_l if u <= delta_l else delta_r if u >= delta_r else u

        T[k], X[k], XD[k], XERR[k], V[k], P[k] = t, x, xd, xerr, v, PL
        U[k], UHAT[k], D[k], DHAT[k], E[k], PS[k] = u, u_hat, d, d_hat, e, ps

        if not frozen:
            step = phi * e * dt_c
            if step != 0.0:
                if pair:
                    theta[i] = theta[i] - step * psi_i
                    theta[i + 1] = theta[i + 1] - step * frac
                else:
                    theta[i] = theta[i] - step
        sign_prev = 1.0 if u > 0.0 else -1.0 if u < 0.0 else 0.0

        x_sp = kv * (u - d)  # the dead-zone decomposition: dead_zone_output(u)
        try:
            for _ in range(n_sub):
                x, v, PL = _rk4(x, v, PL, x_sp, ps, dt_p, c)
                if varying:  # for the next substep, or the next row
                    ps = supply_pressure("varying", x, Ps0)
        except BlowUpError as err:
            raise BlowUpError(
                f"{err} (control period starting at t={t:.6g} s)", time=t
            ) from None

    series = dict(zip(SERIES, (np.asarray(col, dtype=float) for col in cols)))
    report = _monitor_series(series["e"], series["uhat"], series["dhat"], dt_c, centers, monitor)
    metrics = _compute_metrics(
        series["xerr"], series["d"], series["dhat"], monitor.transient_fraction
    )
    return SimResult(**series, dt_control=dt_c, centers=centers, metrics=metrics, monitor=report)


def stability_monitor(result: SimResult, params: MonitorParams = MonitorParams()) -> MonitorReport:
    """Score a completed run against the expected closed-loop behavior.

    Checks, after the transient: (i) the windowed RMS of the combined error
    does not grow from one window to the next beyond the tolerance factor,
    (ii) the final-window mean |e| sits below the configured threshold, and
    (iii) in the final window the compensation estimate has the sign of the
    active dead-zone edge whenever the equivalent control is clearly outside
    the innermost centers of the run's own membership grid. Emits counts,
    never raises. With the same params it gives the report run made.
    """
    return _monitor_series(
        result.e, result.uhat, result.dhat, result.dt_control, result.centers, params
    )


def _monitor_series(
    e: np.ndarray,
    uhat: np.ndarray,
    dhat: np.ndarray,
    dt_control: float,
    centers: tuple[float, ...],
    params: MonitorParams,
) -> MonitorReport:
    n = len(e)
    i0 = int(round(params.transient_fraction * n))
    w_n = max(1, int(round(params.window / dt_control)))

    window_rms: list[float] = []
    start = i0
    while start + w_n <= n:
        seg = e[start:start + w_n]
        window_rms.append(float(np.sqrt(np.mean(seg * seg))))
        start += w_n
    rms_violations = sum(
        1 for lo, hi in zip(window_rms, window_rms[1:]) if hi > params.tol * lo
    )

    if window_rms:
        final_start = i0 + (len(window_rms) - 1) * w_n
        final = slice(final_start, final_start + w_n)
    else:
        final = slice(i0, n) if i0 < n else slice(0, n)
    final_mean = float(np.mean(np.abs(e[final]))) if e[final].size else 0.0

    pos_inner = min((c for c in centers if c > 0.0), default=None)
    neg_inner = max((c for c in centers if c < 0.0), default=None)
    sign_violations = 0
    uh = uhat[final]
    dh = dhat[final]
    if pos_inner is not None:
        sign_violations += int(np.sum((uh > pos_inner) & (dh <= 0.0)))
    if neg_inner is not None:
        sign_violations += int(np.sum((uh < neg_inner) & (dh >= 0.0)))

    return MonitorReport(
        n_windows=len(window_rms),
        window_rms=tuple(window_rms),
        rms_violations=rms_violations,
        final_window_mean_abs_e=final_mean,
        e_threshold=params.e_threshold,
        final_mean_ok=final_mean <= params.e_threshold,
        sign_violations=sign_violations,
    )


def _compute_metrics(
    xerr: np.ndarray,
    d: np.ndarray,
    dhat: np.ndarray,
    transient_fraction: float,
) -> SimMetrics:
    n = len(xerr)
    q = n // 4
    i0 = int(round(transient_fraction * n))

    def _rms(seg: np.ndarray) -> float:
        return float(np.sqrt(np.mean(seg * seg))) if seg.size else 0.0

    dz_err = np.abs(dhat - d)
    post = xerr[i0:]
    return SimMetrics(
        rms_xerr_first_quarter=_rms(xerr[:q]),
        rms_xerr_final_quarter=_rms(xerr[n - q:]),
        max_abs_xerr_post_transient=float(np.max(np.abs(post))) if post.size else 0.0,
        mean_dz_err_first_quarter=float(np.mean(dz_err[:q])) if q else 0.0,
        mean_dz_err_final_quarter=float(np.mean(dz_err[n - q:])) if q else 0.0,
    )
