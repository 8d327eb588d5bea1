"""Conjunctive queries with self-joins: structure, enumeration, reductions."""

__version__ = "0.1.0"
