"""End-to-end benchmark package: workloads, the outside-in layer tracer and
the command-line runner (``python3 perfbench/run.py --help``)."""
