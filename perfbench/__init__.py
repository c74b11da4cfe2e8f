"""Live-path service benchmark; see ``perfbench/README.md``."""
