"""Ornstein-Uhlenbeck and 3-d radial OU processes: exact transition sampling,
killed-path simulation, the measure change connecting the two laws, closed-form
killed semigroups, and a Monte Carlo verification suite."""

__version__ = "0.1.0"
