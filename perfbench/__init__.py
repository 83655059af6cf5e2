"""Layered benchmark of the SOPHON reproduction (see README.md)."""
