"""Seeded benchmark of betaflow, gated by the closed-form oracles.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of a source checkout.
"""
