"""Fixed-step multirate closed-loop executor.

The plant integrates with classical RK4 at the fast rate while the controller
runs at an integer fraction of it under zero-order hold. Every control sample
writes one row of the result; the finished series is scored with tracking
metrics and a stability monitor. Runs are fully deterministic: the same
inputs always produce bit-identical series.

numpy is imported only where a finished run is wrapped and scored, so
importing this module (and ehservo or its CLI) does not load it; the first
run does.
"""

from __future__ import annotations

import math
import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .controller import ControllerParams, model_coefficients
from .fuzzy import FuzzyEstimator
from .plant import EPS_CAV, BlowUpError, PlantParams, check_fields, plant_derivatives

if TYPE_CHECKING:
    import numpy as np

SUPPLY_MODES = ("constant", "varying")

# control-rate series of a SimResult, in CSV column order
SERIES = ("t", "x", "xd", "xerr", "v", "PL", "u", "uhat", "d", "dhat", "e", "Ps")
# one control step's row of SERIES, as run stores it: 8 bytes a value
_ROW = struct.Struct(f"{len(SERIES)}d")

MONITOR_TOL = 1.05              # stability monitor: allowed window-to-window RMS growth
MONITOR_E_THRESHOLD = 0.1       # stability monitor: final-window mean |e| bound


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment: rates, reference, supply mode, initial state."""

    duration: float = 120.0
    dt_plant: float = 1.0 / 800.0
    dt_control: float = 1.0 / 400.0
    amplitude: float = 0.5          # reference amplitude [m]
    omega: float = 0.1              # reference angular frequency [rad/s]
    supply_pressure_mode: str = "constant"
    x0: float = 0.0                 # initial position [m]
    v0: float = 0.0                 # initial velocity [m/s]
    pl0: float = 0.0                # initial load pressure [Pa]
    freeze_adaptation: bool = False

    def __post_init__(self):
        check_fields(self, positive=("duration", "dt_plant", "dt_control"),
                     finite=("amplitude", "omega", "x0", "v0", "pl0"))
        # The step counts round the two ratios, so each float ratio is tested
        # before its rounding: an overflowing rate ratio is no integer multiple,
        # and an overflowing duration ratio indexes no row buffer.
        if not self.dt_control / self.dt_plant < sys.maxsize or (
            abs(self.dt_control - self.substeps * self.dt_plant) > 1e-9 * self.dt_control
        ):
            raise ValueError(
                f"dt_control ({self.dt_control}) must be an integer multiple of "
                f"dt_plant ({self.dt_plant})"
            )
        # run stores one row of every series per control period in one buffer
        if not self.duration / self.dt_control <= sys.maxsize // _ROW.size:
            raise ValueError(
                f"duration ({self.duration}) spans more control periods "
                f"(dt_control = {self.dt_control}) than the run's row buffer can index"
            )
        # 4*dt_control is exact and division is monotonic, so n_steps >= 4:
        # every quarter the metrics score holds at least one sample
        if not self.duration >= 4.0 * self.dt_control:
            raise ValueError(
                f"duration ({self.duration}) must span at least four control periods "
                f"(dt_control = {self.dt_control})"
            )
        # the reference's phase omega*t stays finite up to the last sample
        if not math.isfinite(self.omega * self.duration):
            raise ValueError(
                f"omega ({self.omega}) times duration ({self.duration}) must be finite: "
                "the reference phase overflows"
            )
        # and so does its jerk, which the equivalent control reads
        if not math.isfinite(reference_at(0.0, self.amplitude, self.omega)[3]):
            raise ValueError(
                f"omega ({self.omega}) cubed times amplitude ({self.amplitude}) must be "
                "finite: the reference jerk overflows"
            )
        if self.supply_pressure_mode not in SUPPLY_MODES:
            raise ValueError(
                f"supply_pressure_mode must be one of {SUPPLY_MODES}, "
                f"got {self.supply_pressure_mode!r}"
            )
        frozen = self.freeze_adaptation  # any other value would pick a mode by its truth
        if not isinstance(frozen, bool):
            raise ValueError(f"freeze_adaptation must be True or False, got {frozen!r}")

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
    """The stability monitor's RMS window; its transient is the run's first quarter."""

    window: float = 10.0            # RMS window length [s]

    def __post_init__(self):
        check_fields(self, positive=("window",))


@dataclass(frozen=True)
class MonitorReport:
    """Violation counts of the stability monitor, which run scores once.

    Checks, after the first-quarter transient: (i) the windowed RMS of the
    combined error does not grow from one window to the next beyond MONITOR_TOL,
    (ii) the final-window mean |e| sits at or below MONITOR_E_THRESHOLD, and
    (iii) in the final window the compensation estimate has the sign of the
    active dead-zone edge whenever the equivalent control is clearly outside
    the innermost centers of the run's own membership grid. A side of the
    grid with no center counts nothing.
    """

    window_rms: tuple[float, ...]   # one per scored window
    rms_violations: int             # type (i): windowed RMS of e grew
    final_window_mean_abs_e: float
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


@dataclass(eq=False)
class SimResult:
    """Control-rate time series of one run and its scores.

    The series that run returns are the float64 columns of the one row
    buffer it filled, shared with no copy: a run costs 8 bytes per value.
    """

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
    metrics: SimMetrics
    monitor: MonitorReport


def reference_at(t: float, amplitude: float, omega: float) -> tuple[float, float, float, float]:
    """Sinusoidal position reference and its first three derivatives at time t,
    as the tuple (xd, xd_dot, xd_ddot, xd_dddot)."""
    wt = omega * t
    s = math.sin(wt)
    c = math.cos(wt)
    return (amplitude * s, amplitude * omega * c, -amplitude * omega * omega * s,
            -amplitude * omega * omega * omega * c)


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


def rk4_step(x: float, v: float, PL: float, u: float, ps: float, dt: float,
             p: PlantParams) -> tuple[float, float, float]:
    """One classical Runge-Kutta step of state x, v, PL with u and ps held.

    Returns the new state as the tuple (x, v, PL). Its four stages call
    plant_derivatives, the written reference of the plant; sim.run's loop
    carries the one inlined copy of them. The load pressure is clamped to
    [-ps, ps] afterwards; beyond that range the orifice model stops being
    physical.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be strictly positive, got {dt}")
    k1x, k1v, k1p = plant_derivatives(x, v, PL, u, ps, p)
    h = 0.5 * dt
    k2x, k2v, k2p = plant_derivatives(x + h * k1x, v + h * k1v, PL + h * k1p, u, ps, p)
    k3x, k3v, k3p = plant_derivatives(x + h * k2x, v + h * k2v, PL + h * k2p, u, ps, p)
    k4x, k4v, k4p = plant_derivatives(x + dt * k3x, v + dt * k3v, PL + dt * k3p, u, ps, p)
    w = dt / 6.0
    x = x + w * (k1x + 2.0 * (k2x + k3x) + k4x)
    v = v + w * (k1v + 2.0 * (k2v + k3v) + k4v)
    PL = PL + w * (k1p + 2.0 * (k2p + k3p) + k4p)
    if not (math.isfinite(x) and math.isfinite(v) and math.isfinite(PL)):
        raise BlowUpError(f"non-finite state after RK4 step: x={x}, v={v}, PL={PL}")
    if PL > ps:
        PL = ps
    elif PL < -ps:
        PL = -ps
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

    The loop runs over plain floats, the plant state as the x, v, PL that
    plant_derivatives and rk4_step take. It inlines reference_at,
    combined_error, input_gain_b, equivalent_control, membership, infer,
    control_law, adapt, dead_zone_d, sgn, acceleration, rk4_step and the
    four plant_derivatives stages of each substep in their exact operation
    order: it is the one copy of those written references, and every series
    equals the one they give, bit for bit. It calls supply_pressure once, for
    the starting supply, and inlines only its varying law after each substep.
    The tests compose the same loop from the public functions and require run
    to equal it.

    Each step writes its row of the twelve series once, in SERIES order; a
    frozen run's dhat is +0.0.

    Each substep checks finiteness once, on x + v + PL after the RK4 combine,
    where rk4_step checks every stage. The one check misses no stage: every
    stage value reaches the result as a term of a sum, times a positive
    constant or times K, Bp or Ctp >= 0 (and 0*inf is NaN), so a non-finite
    stage always leaves a non-finite result. When the check fails, the
    substep is replayed through rk4_step with the held u and ps, which raises
    the first failing stage's message or its own post-step one, as when a
    varying supply has overflowed and the spool is open. If it returns
    instead, the finite parts only overflowed their sum, and the run goes on
    from its state.
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
    # true plant: each product below is the one plant_derivatives forms
    # first, and the RK4 weights of rk4_step
    cdw, g = plant.Cd * plant.w, 4.0 * plant.beta_e / plant.Vt
    rho, Ap, Bp, K, Mt, Ctp = plant.rho, plant.Ap, plant.Bp, plant.K, plant.Mt, plant.Ctp
    Ps0, delta_l, delta_r, kv = plant.Ps, plant.delta_l, plant.delta_r, plant.kv
    h = 0.5 * dt_p
    w = dt_p / 6.0
    sqrt, sin, cos, isfinite, eps_cav = math.sqrt, math.sin, math.cos, math.isfinite, EPS_CAV
    substeps = range(n_sub)

    # unboxed float64 rows: each value is stored as 8 bytes and its float
    # object freed, and SimResult's arrays read this buffer without a copy
    buf = bytearray(_ROW.size * n_steps)
    pack_row, row_size = _ROW.pack_into, _ROW.size
    x, v, PL = scenario.x0, scenario.v0, scenario.pl0
    ps = supply_pressure(scenario.supply_pressure_mode, x, Ps0)
    # acceleration(): the force balance, which the spool does not enter. Each
    # substep forms it again after its update, where it is both the next row's
    # x_ddot and the next substep's first stage.
    a = (Ap * PL - Bp * v - K * x) / Mt
    sign_prev = 0.0

    for k in range(n_steps):
        t = k * dt_c
        x_ddot = a
        wt = omega * t
        sin_wt = sin(wt)
        cos_wt = cos(wt)
        xd = A * sin_wt
        xd_dot = A_w * cos_wt
        xd_ddot = A_w2 * sin_wt
        xd_dddot = A_w3 * cos_wt
        xerr = x - xd
        xerr_dot = v - xd_dot
        xerr_ddot = x_ddot - xd_ddot
        e = c0 * xerr + c1 * xerr_dot + xerr_ddot
        drop = Ps_m - sign_prev * ((Mt_m * x_ddot + Bp_m * v + K_m * x) / Ap_m)
        if drop < eps_cav:
            drop = eps_cav
        b = b_pre * sqrt(drop / rho_m)
        u_hat = (
            a0 * x + a1 * v + a2 * x_ddot + xd_dddot
            - c1 * xerr_ddot - c0 * xerr_dot
        ) / b
        if not isfinite(u_hat):
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
        if not isfinite(u):
            raise BlowUpError(f"non-finite control voltage at t={t:.6g} s", time=t)
        d = delta_l if u <= delta_l else delta_r if u >= delta_r else u

        pack_row(buf, k * row_size, t, x, xd, xerr, v, PL, u, u_hat, d, d_hat, e, ps)

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
        # the spool is held over the period: its flow branch and load_flow's
        # first flow product cdw*x_sp are formed once. A shut spool gives
        # cq = 0 and so q = 0, load_flow's QL, with no branch of its own; on
        # an infinite radicand q is NaN, and the substep check replays it.
        opening = x_sp > 0.0
        cq = cdw * x_sp
        try:
            for _ in substeps:
                # stage 1 at (x, v, PL): finite after the last step's check
                # (or Scenario's), with the force balance a as its dv/dt
                drop = ps - PL if opening else ps + PL
                if drop < eps_cav:
                    drop = eps_cav
                q = cq * sqrt(drop / rho)
                dp1 = g * (q - Ap * v - Ctp * PL)
                # stage 2
                x2, v2, P2 = x + h * v, v + h * a, PL + h * dp1
                dv2 = (Ap * P2 - Bp * v2 - K * x2) / Mt
                drop = ps - P2 if opening else ps + P2
                if drop < eps_cav:
                    drop = eps_cav
                q = cq * sqrt(drop / rho)
                dp2 = g * (q - Ap * v2 - Ctp * P2)
                # stage 3
                x3, v3, P3 = x + h * v2, v + h * dv2, PL + h * dp2
                dv3 = (Ap * P3 - Bp * v3 - K * x3) / Mt
                drop = ps - P3 if opening else ps + P3
                if drop < eps_cav:
                    drop = eps_cav
                q = cq * sqrt(drop / rho)
                dp3 = g * (q - Ap * v3 - Ctp * P3)
                # stage 4
                x4, v4, P4 = x + dt_p * v3, v + dt_p * dv3, PL + dt_p * dp3
                dv4 = (Ap * P4 - Bp * v4 - K * x4) / Mt
                drop = ps - P4 if opening else ps + P4
                if drop < eps_cav:
                    drop = eps_cav
                q = cq * sqrt(drop / rho)
                dp4 = g * (q - Ap * v4 - Ctp * P4)
                x_n = x + w * (v + 2.0 * (v2 + v3) + v4)
                v_n = v + w * (a + 2.0 * (dv2 + dv3) + dv4)
                P_n = PL + w * (dp1 + 2.0 * (dp2 + dp3) + dp4)
                if not isfinite(x_n + v_n + P_n):
                    # a non-finite stage leaves a non-finite result (see the
                    # docstring): rk4_step names it, or returns when the
                    # finite parts only overflowed their sum
                    x_n, v_n, P_n = rk4_step(x, v, PL, u, ps, dt_p, plant)
                x, v = x_n, v_n
                PL = ps if P_n > ps else -ps if P_n < -ps else P_n
                if varying:  # for the next substep, or the next row
                    ps = Ps0 * (1.0 + 0.2 * sin(x))
                a = (Ap * PL - Bp * v - K * x) / Mt
        except BlowUpError as err:
            raise BlowUpError(
                f"{err} (control period starting at t={t:.6g} s)", time=t
            ) from None

    import numpy as np

    rows = np.frombuffer(buf, dtype=np.float64).reshape(n_steps, len(SERIES))
    series = dict(zip(SERIES, rows.T))
    metrics, report = _compute_metrics(series, dt_c, centers, monitor)
    return SimResult(**series, metrics=metrics, monitor=report)


def _rms(rows: np.ndarray) -> np.ndarray:
    """Root mean square of each row of a 2-D array of at least one column.

    A row whose squares or their sum overflow is first divided by its largest
    magnitude, so a large but finite row keeps a finite RMS. A row sums as its 1-D slice does.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        rms = np.sqrt(np.add.reduce(rows * rows, axis=1) / rows.shape[1])
    for i in np.flatnonzero(rms == math.inf):
        scale = np.max(np.abs(rows[i]))
        if scale < math.inf:
            rms[i] = scale * _rms(rows[i:i + 1] / scale)[0]
    return rms


def _compute_metrics(
    series: dict[str, np.ndarray],
    dt_control: float,
    centers: tuple[float, ...],
    params: MonitorParams,
) -> tuple[SimMetrics, MonitorReport]:
    """Score a finished run once: its SimMetrics and its MonitorReport.

    series maps SERIES names to the run's columns, at least four rows of them
    (Scenario's bound), so every span scored holds a sample. The first quarter
    is the transient, after which the post-transient maximum and the monitor's
    first window start. One _rms call scores the monitor windows as rows of e,
    and one the two quarters of xerr.
    """
    import numpy as np

    xerr, d, dhat, e, uhat = (series[name] for name in ("xerr", "d", "dhat", "e", "uhat"))
    n = len(e)
    q = n // 4
    # a window longer than the run scores zero windows, however long it is
    w_n = max(1, int(round(min(params.window / dt_control, n + 1))))

    n_windows = (n - q) // w_n
    window_rms = _rms(e[q:q + n_windows * w_n].reshape(n_windows, w_n)).tolist()
    rms_violations = sum(
        1 for lo, hi in zip(window_rms, window_rms[1:]) if hi > MONITOR_TOL * lo
    )

    if n_windows:
        final_start = q + (n_windows - 1) * w_n
        final = slice(final_start, final_start + w_n)
    else:
        final = slice(q, n)
    final_mean = float(np.mean(np.abs(e[final])))

    # a grid side with no center has its innermost one at infinity: no sample counts
    pos_inner = min((c for c in centers if c > 0.0), default=math.inf)
    neg_inner = max((c for c in centers if c < 0.0), default=-math.inf)
    uh, dh = uhat[final], dhat[final]
    sign_violations = int(np.sum((uh > pos_inner) & (dh <= 0.0))
                          + np.sum((uh < neg_inner) & (dh >= 0.0)))

    dz_err = np.abs(dhat - d)
    rms_first, rms_final = _rms(np.stack((xerr[:q], xerr[n - q:]))).tolist()
    metrics = SimMetrics(
        rms_xerr_first_quarter=rms_first,
        rms_xerr_final_quarter=rms_final,
        max_abs_xerr_post_transient=float(np.max(np.abs(xerr[q:]))),
        mean_dz_err_first_quarter=float(np.mean(dz_err[:q])),
        mean_dz_err_final_quarter=float(np.mean(dz_err[n - q:])),
    )
    return metrics, MonitorReport(
        window_rms=tuple(window_rms),
        rms_violations=rms_violations,
        final_window_mean_abs_e=final_mean,
        final_mean_ok=final_mean <= MONITOR_E_THRESHOLD,
        sign_violations=sign_violations,
    )
