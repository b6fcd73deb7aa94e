"""Continuous-variable cluster-state engineering toolkit.

Compiles cluster graphs into passive linear-optics networks, simulates
finite-squeezing Gaussian states with loss through them, and certifies
multipartite inseparability via variance-sum criteria.
"""

__version__ = "0.1.0"
