"""DRAM operational models: page policies and interfaces."""
