"""Kept for ``IDENTITY_KEYS`` only: the end-to-end ledger's
``service_mix`` child imports it from here (``benchmarks/e2e/child.py``)."""

#: physics fields of a run record that must match bit-for-bit between
#: a cached record and a fresh execution of the same config
IDENTITY_KEYS = ("target_cycles", "wall_ns", "rate_hz",
                 "tokens_transferred", "per_partition_cycles",
                 "detail", "fingerprint", "config")
