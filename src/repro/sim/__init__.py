"""Multicore multithreaded timing simulator for the LLC study."""

#: Bump by hand on any simulator change that alters a ``SimStats``
#: (like :data:`repro.core.solvecache.CACHE_VERSION` for solves), so a
#: study journal written by an older simulator restores nothing.
SIM_VERSION = "repro-sim-v1"
