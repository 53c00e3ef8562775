"""Simulation and verification toolkit for bilayer-square-lattice cluster
states: temporal-mode construction, nullifier witnesses, homodyne
measurement-based gates, and a grid wavefunction oracle for the non-Gaussian
identities."""

__version__ = "0.1.0"
