"""Experiment drivers and report rendering for every table and figure."""
