"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-models``        model zoo with parameter counts
``list-experiments``   paper figures/tables and ablations by id
``info``               one model's layer tree, sites, and memory
``train``              train (or load cached) base weights
``protect``            apply a protection scheme and save a checkpoint
``evaluate``           clean accuracy of a checkpoint
``experiment``         regenerate a paper artefact by id
"""

from repro.cli.main import build_parser, main

__all__ = ["build_parser", "main"]
