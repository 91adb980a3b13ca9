"""Per-rule good/bad fixtures driven through :func:`lint_text`.

Each snippet is linted under a virtual path so rule scoping behaves
exactly as it would for the real tree ("src/repro/store/x.py" gets the
store rules, and so on) without touching the filesystem.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import lint_text


def rules_in(source: str, path: str) -> list[str]:
    return [f.rule for f in lint_text(textwrap.dedent(source), path)]


# ----------------------------------------------------------------------
# RPL001 — raw param.data writes
# ----------------------------------------------------------------------
class TestRPL001:
    def test_flags_raw_rebind_outside_whitelist(self):
        src = """
            def step(param, update):
                param.data = param.data - update
        """
        assert rules_in(src, "src/repro/optim/foo.py") == ["RPL001"]

    def test_flags_augmented_assignment(self):
        src = """
            def step(param, update):
                param.data -= update
        """
        assert rules_in(src, "src/repro/core/foo.py") == ["RPL001"]

    def test_whitelists_module_and_injector(self):
        src = """
            def load(param, value):
                param.data = value
        """
        assert rules_in(src, "src/repro/nn/module.py") == []
        assert rules_in(src, "src/repro/fault/injector.py") == []

    def test_self_data_is_not_a_parameter_write(self):
        src = """
            class Record:
                def __init__(self, data):
                    self.data = data
        """
        assert rules_in(src, "src/repro/eval/foo.py") == []

    def test_subscript_writes_not_flagged(self):
        # In-place element writes are the documented plan.refresh() edge,
        # and `result.data[key] = row` dicts abound in eval/; the rule
        # only polices whole-array rebinds.
        src = """
            def fill(result, key, row):
                result.data[key] = row
        """
        assert rules_in(src, "src/repro/eval/foo.py") == []

    def test_inline_disable_suppresses(self):
        src = """
            def quantize_all(param, value):
                param.data = value  # repro-lint: disable=RPL001
        """
        assert rules_in(src, "src/repro/quant/foo.py") == []


# ----------------------------------------------------------------------
# RPL002 — direct .training assignment
# ----------------------------------------------------------------------
class TestRPL002:
    def test_flags_direct_assignment(self):
        src = """
            def serve(model):
                model.training = False
        """
        assert "RPL002" in rules_in(src, "src/repro/serve/foo.py")

    def test_applies_to_tests_too(self):
        src = """
            def test_something(model):
                model.training = True
        """
        assert "RPL002" in rules_in(src, "tests/serve/test_foo.py")

    def test_property_setter_in_module_py_exempt(self):
        src = """
            class Module:
                def train(self, mode=True):
                    self.training = mode
        """
        assert rules_in(src, "src/repro/nn/module.py") == []

    def test_reading_training_is_fine(self):
        src = """
            def mode(model):
                return "train" if model.training else "eval"
        """
        assert rules_in(src, "src/repro/serve/foo.py") == []


# ----------------------------------------------------------------------
# RPL003 — raw GEMM in runtime/
# ----------------------------------------------------------------------
class TestRPL003:
    def test_flags_np_dot_and_matmul_operator(self):
        src = """
            import numpy as np

            def forward(a, b, c):
                x = np.dot(a, b)
                return x @ c
        """
        assert rules_in(src, "src/repro/runtime/foo.py") == ["RPL003", "RPL003"]

    def test_flags_einsum(self):
        src = """
            import numpy as np

            def forward(a, b):
                return np.einsum("ij,jk->ik", a, b)
        """
        assert rules_in(src, "src/repro/runtime/foo.py") == ["RPL003"]

    def test_kernels_module_is_the_approved_home(self):
        src = """
            import numpy as np

            def gemm(a, b):
                return np.dot(a, b)
        """
        assert rules_in(src, "src/repro/runtime/kernels.py") == []

    def test_outside_runtime_unconstrained(self):
        src = """
            import numpy as np

            def loss(a, b):
                return a @ b
        """
        assert rules_in(src, "src/repro/nn/linear.py") == []


# ----------------------------------------------------------------------
# RPL004 — nondeterminism on journaled paths
# ----------------------------------------------------------------------
class TestRPL004:
    def test_flags_wall_clock(self):
        src = """
            import time

            def stamp():
                return time.time()
        """
        # RPL009 (raw clock read) fires on the same call.
        assert rules_in(src, "src/repro/store/foo.py") == ["RPL004", "RPL009"]

    def test_flags_stdlib_random_import_and_call(self):
        src = """
            import random

            def pick(items):
                return random.choice(items)
        """
        assert rules_in(src, "src/repro/fault/foo.py") == ["RPL004", "RPL004"]

    def test_flags_unseeded_default_rng(self):
        src = """
            import numpy as np

            def rng():
                return np.random.default_rng()
        """
        assert rules_in(src, "src/repro/fault/foo.py") == ["RPL004"]

    def test_seeded_default_rng_is_fine(self):
        src = """
            import numpy as np

            def rng(seed):
                return np.random.default_rng(seed)
        """
        assert rules_in(src, "src/repro/fault/foo.py") == []

    def test_flags_set_iteration(self):
        src = """
            def dump(names):
                for name in set(names):
                    yield name
                return [n for n in {1, 2, 3}]
        """
        assert rules_in(src, "src/repro/store/foo.py") == ["RPL004", "RPL004"]

    def test_sorted_set_is_fine(self):
        src = """
            def dump(names):
                for name in sorted(set(names)):
                    yield name
        """
        assert rules_in(src, "src/repro/store/foo.py") == []

    def test_wall_clock_outside_journaled_paths_is_not_rpl004(self):
        src = """
            import time

            def stamp():
                return time.time()
        """
        # Only the raw-timing rule fires outside fault/ and store/.
        assert rules_in(src, "src/repro/core/foo.py") == ["RPL009"]

    def test_perf_counter_is_fine(self):
        src = """
            import time

            def tick():
                return time.perf_counter()
        """
        assert "RPL004" not in rules_in(src, "src/repro/fault/foo.py")

    def test_coord_is_a_journaled_path_too(self):
        # PR 10: lease staleness must come from fs_now (filesystem
        # clock), never a local wall-clock read.
        src = """
            import time

            def age(mtime):
                return time.time() - mtime
        """
        assert rules_in(src, "src/repro/coord/lease.py") == [
            "RPL004",
            "RPL009",
        ]
        src = """
            def drain(workers):
                return [w for w in set(workers)]
        """
        assert rules_in(src, "src/repro/coord/scheduler.py") == ["RPL004"]


# ----------------------------------------------------------------------
# RPL005 — raw json in store/
# ----------------------------------------------------------------------
class TestRPL005:
    def test_flags_json_dump_and_dumps(self):
        src = """
            import json

            def save(payload, handle):
                json.dump(payload, handle)
                return json.dumps(payload)
        """
        assert rules_in(src, "src/repro/store/foo.py") == ["RPL005", "RPL005"]

    def test_encoding_module_exempt(self):
        src = """
            import json

            def exact_json_dumps(payload):
                return json.dumps(payload, allow_nan=False)
        """
        assert rules_in(src, "src/repro/store/encoding.py") == []

    def test_json_loads_is_fine(self):
        src = """
            import json

            def load(line):
                return json.loads(line)
        """
        assert rules_in(src, "src/repro/store/foo.py") == []

    def test_outside_store_unconstrained(self):
        src = """
            import json

            def render(payload):
                return json.dumps(payload)
        """
        assert rules_in(src, "src/repro/serve/foo.py") == []


# ----------------------------------------------------------------------
# RPL006 — import layering
# ----------------------------------------------------------------------
class TestRPL006:
    def test_fault_must_not_import_store(self):
        src = """
            from repro.store import CampaignStore
        """
        assert rules_in(src, "src/repro/fault/foo.py") == ["RPL006"]

    def test_nn_must_not_import_runtime(self):
        src = """
            import repro.runtime
        """
        assert rules_in(src, "src/repro/nn/foo.py") == ["RPL006"]

    def test_declared_edges_pass(self):
        src = """
            from repro.errors import ReproError
            from repro.nn.module import Module
        """
        assert rules_in(src, "src/repro/optim/foo.py") == []

    def test_type_checking_imports_exempt(self):
        src = """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.store import CampaignStore
        """
        assert rules_in(src, "src/repro/fault/foo.py") == []

    def test_relative_imports_exempt(self):
        src = """
            from .parallel import TrialOutcome
        """
        assert rules_in(src, "src/repro/fault/foo.py") == []

    def test_cli_may_import_anything(self):
        src = """
            from repro.store import CampaignStore
            from repro.serve.aio import AsyncReproServer
        """
        assert rules_in(src, "src/repro/cli/foo.py") == []

    def test_coord_sits_above_store_and_serve(self):
        src = """
            from repro.store import CampaignStore
            from repro.serve.routes import Router
        """
        assert rules_in(src, "src/repro/coord/foo.py") == []

    def test_coord_must_not_import_runtime_and_store_not_coord(self):
        src = """
            from repro.runtime.plan import compile_model
        """
        assert rules_in(src, "src/repro/coord/foo.py") == ["RPL006"]
        src = """
            from repro.coord import WorkerLease
        """
        assert rules_in(src, "src/repro/store/foo.py") == ["RPL006"]


# ----------------------------------------------------------------------
# RPL008 — except block leaking injected faults
# ----------------------------------------------------------------------
class TestRPL008:
    def test_flags_swallowing_handler(self):
        src = """
            def trial(injector, evaluate):
                try:
                    injector.apply()
                    return evaluate()
                except Exception:
                    return None
        """
        assert rules_in(src, "src/repro/fault/foo.py") == ["RPL008"]

    def test_flip_bits_write_counts_as_fault_mutation(self):
        src = """
            def trial(param, evaluate):
                try:
                    param.data = flip_bits(param.data)  # repro-lint: disable=RPL001
                    return evaluate()
                except Exception:
                    return None
        """
        assert rules_in(src, "src/repro/fault/foo.py") == ["RPL008"]

    def test_reraise_is_compliant(self):
        src = """
            def trial(injector, evaluate):
                try:
                    injector.apply()
                    return evaluate()
                except Exception:
                    raise
        """
        assert rules_in(src, "src/repro/fault/foo.py") == []

    def test_restore_call_is_compliant(self):
        src = """
            def trial(injector, evaluate):
                try:
                    injector.apply()
                    return evaluate()
                except Exception:
                    injector.restore()
                    return None
        """
        assert rules_in(src, "src/repro/fault/foo.py") == []

    def test_finally_is_compliant(self):
        src = """
            def trial(injector, evaluate):
                try:
                    injector.apply()
                    return evaluate()
                except Exception:
                    return None
                finally:
                    injector.restore()
        """
        assert rules_in(src, "src/repro/fault/foo.py") == []

    def test_plain_try_without_fault_mutation_unconstrained(self):
        src = """
            def load(path):
                try:
                    return open(path).read()
                except OSError:
                    return None
        """
        assert rules_in(src, "src/repro/fault/foo.py") == []


# ----------------------------------------------------------------------
# RPL009 — raw clock reads outside the observability layer
# ----------------------------------------------------------------------
class TestRPL009:
    def test_flags_every_clock_call(self):
        src = """
            import time

            def clocks():
                return (
                    time.time(),
                    time.perf_counter(),
                    time.monotonic(),
                    time.process_time(),
                )
        """
        assert rules_in(src, "src/repro/serve/foo.py") == ["RPL009"] * 4

    def test_flags_ns_variants(self):
        src = """
            import time

            def clocks():
                return time.monotonic_ns() + time.perf_counter_ns()
        """
        assert rules_in(src, "src/repro/core/foo.py") == ["RPL009", "RPL009"]

    def test_obs_package_is_the_funnel(self):
        src = """
            import time

            def now():
                return time.perf_counter()
        """
        assert rules_in(src, "src/repro/obs/trace.py") == []

    def test_utils_timing_is_the_funnel(self):
        src = """
            import time

            def lap():
                return time.perf_counter()
        """
        assert rules_in(src, "src/repro/utils/timing.py") == []

    def test_other_utils_modules_are_constrained(self):
        src = """
            import time

            def lap():
                return time.perf_counter()
        """
        assert rules_in(src, "src/repro/utils/rng.py") == ["RPL009"]

    def test_sleep_is_pacing_not_reading(self):
        src = """
            import time

            def wait():
                time.sleep(0.1)
        """
        assert rules_in(src, "src/repro/serve/foo.py") == []

    def test_inline_disable_suppresses(self):
        src = """
            import time

            def deadline():
                return time.monotonic()  # repro-lint: disable=RPL009
        """
        assert rules_in(src, "src/repro/cli/foo.py") == []


# ----------------------------------------------------------------------
# RPL010 — replica lanes never row-split the shared-weight GEMM
# ----------------------------------------------------------------------
class TestRPL010:
    def test_flags_subscripted_gemm_operand_in_kernels(self):
        src = """
            import numpy as np

            def lane(acts, weights, lane_index):
                return np.dot(acts[lane_index], weights)
        """
        assert "RPL010" in rules_in(src, "src/repro/runtime/kernels.py")

    def test_flags_sliced_matmul_operator(self):
        src = """
            def lane(acts, weights, i, j):
                return acts[i:j] @ weights
        """
        assert rules_in(src, "src/repro/runtime/kernels.py") == ["RPL010"]

    def test_flags_subscripted_out_target(self):
        src = """
            import numpy as np

            def lane(acts, weights, out, lane_index):
                np.matmul(acts, weights, out=out[lane_index])
        """
        assert "RPL010" in rules_in(src, "src/repro/runtime/plan.py")

    def test_flags_einsum_with_sliced_operand(self):
        src = """
            import numpy as np

            def lane(batch, weights, r):
                return np.einsum("bk,kn->bn", batch[r], weights)
        """
        assert "RPL010" in rules_in(src, "src/repro/runtime/kernels.py")

    def test_whole_array_gemm_is_clean(self):
        src = """
            import numpy as np

            def forward(acts, weights):
                return np.dot(acts, weights)
        """
        assert rules_in(src, "src/repro/runtime/kernels.py") == []

    def test_subscript_outside_runtime_is_not_this_rules_business(self):
        src = """
            import numpy as np

            def mix(a, b, i):
                return np.dot(a[i], b)
        """
        assert "RPL010" not in rules_in(src, "src/repro/eval/reporting.py")

    def test_subscript_in_non_gemm_call_is_clean(self):
        src = """
            import numpy as np

            def gather(weights, index):
                return np.take(weights[index], 0)
        """
        assert rules_in(src, "src/repro/runtime/kernels.py") == []
