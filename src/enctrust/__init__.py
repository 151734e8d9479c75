"""Encrypted trust-based route discovery.

A bit-level somewhat-homomorphic encryption scheme over the integers, boolean
circuit evaluation on encrypted bits (plain XOR/AND gates and flag-configured
universal gates), a chaining adapter for multi-hop evaluation, a greedy
route-discovery protocol that accumulates per-hop trust under encryption, and
a simulator with a plaintext reference oracle, a noise planner, and benchmarks.

Each name is imported from the module that defines it, such as
``from enctrust.sim import run_discovery``; the package root binds none.
"""

__version__ = "0.1.0"
