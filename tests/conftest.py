"""Shared test settings: a failing Hypothesis test prints the blob that replays its example."""

from hypothesis import settings

settings.register_profile("reebplug", print_blob=True)
settings.load_profile("reebplug")
