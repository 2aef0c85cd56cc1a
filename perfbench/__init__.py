"""End-to-end benchmark of the GEVO reproduction (see ``perfbench/README.md``)."""
