"""memsim: memristive devices, circuits, crossbar arrays, and networks.

Desk-scale, deterministic simulations: single-device dynamics (pinched
hysteresis and friends), small fixed circuits, crossbar storage and learning,
Kirchhoff-constrained network dynamics, and analog-learning readouts.
"""

from .core import (
    DriveSignal,
    IntegratorSpec,
    IntegrationDivergedError,
    SimulationError,
    Trace,
    eval_signal,
    integrate,
    loop_area,
    power_spectrum_exponent,
)
from .devices import (
    ChangParams,
    FilmParams,
    HhParams,
    HpParams,
    PickettParams,
    SaturationError,
    SpinTorqueParams,
    ThresholdDeviceParams,
    WindowSpec,
    beta_from_film,
    chang_model,
    hh_model,
    hp_analytic_w,
    hp_resistance,
    hp_rhs,
    joglekar_window,
    pickett_rhs,
    simulate_hp_voltage_driven,
    spin_torque_model,
    threshold_device_rhs,
)
from .circuits import (
    AmoebaParams,
    McParams,
    PlantParams,
    amoeba_simulate,
    hh_simulate,
    lambert_w,
    mc_analytic,
    mc_calibrate,
    mc_simulate,
    plant_simulate,
)
from .network import (
    CircuitGraph,
    Edge,
    MazeSpec,
    bfs_shortest_path,
    cycle_projector,
    edge_currents,
    kirchhoff_system,
    linearize,
    maze_to_circuit,
    memnet_rhs,
    random_network,
    simulate_network,
    soc_experiment,
    solve_maze,
    source_vector,
)
from .crossbar import (
    Crossbar,
    EnergyParams,
    PulseSpec,
    StdpKernel,
    UpdateRule,
    apply_update,
    energy_estimates,
    nodal_oracle,
    program_matrix,
    read_bit,
    read_mvm,
    stdp_program,
    switching_time,
    write_pulse,
)
from .learning import (
    LcaProblem,
    LinearReservoir,
    MemristiveReservoir,
    NefPopulation,
    Reservoir,
    fit_readout,
    hard_threshold,
    lca_simulate,
    lif_response,
    nef_decode,
    nef_encode,
    nef_fit_decoders,
    random_nef_population,
    rc_run,
)

__version__ = "0.1.0"
