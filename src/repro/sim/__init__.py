"""Multicore multithreaded timing simulator for the LLC study."""

#: Bump by hand on any simulator change that alters a ``SimStats``
#: (like :data:`repro.core.solvecache.CACHE_VERSION` for solves), so
#: study cells stored by an older simulator restore nothing.
SIM_VERSION = "repro-sim-v1"
