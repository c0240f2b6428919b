"""Power accounting: hierarchy breakdown, system power, energy-delay."""
