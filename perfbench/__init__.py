"""Closed-loop benchmark of frameiso; run.py is the entry point."""
