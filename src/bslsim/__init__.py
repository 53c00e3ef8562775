"""Simulation and verification toolkit for bilayer-square-lattice cluster
states: temporal-mode construction, nullifier witnesses, homodyne
measurement-based gates, and a grid wavefunction oracle for the non-Gaussian
identities."""

from .graphstate import (GraphState, GraphStateError, SymplecticGate, apply,
                         covariance, gate_beamsplitter, gate_cz,
                         gate_displacement, gate_identity, gate_rotation,
                         gate_shear, gate_squeeze, omega, squeezed_vacua,
                         vacuum)
from .lattice import (LatticeConfig, build_bsl, canonical_wire, edge_summary,
                      ideal_graph, schedule, to_dot)
from .mbqc import (MeasurementRecord, ProgramError, cz_gate_angles,
                   decouple_wires, feedforward, run_program,
                   simulate_single_mode_gate, two_mode_gate, v_gate,
                   v_gate_displacement)
from .nullifiers import (NullifierSet, WitnessReport, empirical_variances,
                         exact_nullifiers, ingest_samples, lattice_factors,
                         lattice_variances, nullifier_variances,
                         phi_transform, quadrature_nullifiers,
                         sample_homodyne_dataset, sample_marginal,
                         witness_from_variances)
from .oracle import GridError, WaveFunction, fidelity_up_to_phase
from .identities import (run_suite, verify_teleport_identity, verify_cubic_device,
                         verify_teleport_circuit, verify_commutation)

__version__ = "0.1.0"
