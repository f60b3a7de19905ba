"""Scalar reference implementations kept on the test side."""
