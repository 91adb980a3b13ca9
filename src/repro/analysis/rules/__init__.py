"""The RPL rule pack; importing this package registers every rule."""

from repro.analysis.rules import (  # noqa: F401
    rpl001_param_data,
    rpl002_training_flag,
    rpl003_raw_gemm,
    rpl004_nondeterminism,
    rpl005_json_exact,
    rpl006_layering,
    rpl008_restore_leak,
    rpl009_raw_timing,
    rpl010_replica_row_split,
)
