"""End-to-end pipeline benchmark: text -> verify -> admit -> fleet.

Run ``python3 pipebench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; ``NOTES.md`` records why
each workload exists and which layer metric should move which
end-to-end metric.
"""
