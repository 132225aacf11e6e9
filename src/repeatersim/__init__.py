"""Simulator and analysis toolkit for ensemble-based quantum repeaters.

Layers:

- :mod:`repeatersim.fock` — exact truncated Fock-space engine (the oracle).
- :mod:`repeatersim.ensemble` — light-atom rates, squeezing, heating dynamics.
- :mod:`repeatersim.protocol` — link generation/swapping recursions + oracles.
- :mod:`repeatersim.applications` — CHSH, key distribution, teleportation.
- :mod:`repeatersim.scaling` — communication-time scaling and optimization.
- :mod:`repeatersim.montecarlo` — seeded waiting-time trials (one lockstep
  NumPy sampler, bit-identical to the scalar reference).

Import a layer to use it (``from repeatersim import protocol``): the package
itself loads no submodule and no NumPy, and the analytic layers never need it.
"""

__version__ = "0.1.0"
