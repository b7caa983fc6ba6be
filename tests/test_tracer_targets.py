"""The benchmark tracer in ``perfbench/tracing.py`` patches fixed module
attributes (``cli.parse_graph``, ``oracles.build_profile_table``, ...).  A
refactor that moves a traced call or drops an import must fail here, not
break ``perfbench/run.py --trace 1`` unnoticed."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_restore_leaves_nothing_patched():
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
    finally:
        left = tracer.restore()
    assert left == []
