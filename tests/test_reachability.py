"""``src/`` holds what the CLI reaches: every function and method defined
there is called by one of a fixed list of CLI lines, run in-process under
``sys.setprofile``, or is named below with the reason it is kept."""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import lln_energy
from lln_energy import cli
from test_cli import HETERO_INI


def _bench_traced() -> tuple[tuple[str, str], ...]:
    """``bench/tracing.py``'s ``TRACED``: the (module, function) names the
    benchmark wraps and times, so kept while it calls them."""
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


#: Kept though no CLI line reaches them, besides the benchmark's names
HELPERS = {
    "hopmodel._key": "checks the one key of the scalar names the benchmark pins",
    "hopmodel._bit_counts": "checks the bit counts of the scalar names the benchmark pins",
    "pathmodel.fragment_failure_sum": "criterion 3's closed form; the model calls its core",
}
ALLOWED = {f"{mod}.{fn}" for mod, fn in _bench_traced()} | set(HELPERS)

#: (CLI line, exit status): every subcommand and format, both fidelities
#: (with FEC, so the bit replay bisects a threshold), a heterogeneous
#: path, layouts that fit and that do not, and the refusals
LINES = [
    ("model", 0),
    ("model --mss 512 --format jsonl", 0),
    ("model --config hetero.ini --format jsonl", 0),
    ("model --alpha 5 --fragments fit", 1),
    ("model --print-config", 0),
    ("model --bogus", 1),
    ("simulate --reps 20 --seed 1", 0),
    ("simulate --config hetero.ini --fidelity bit --alpha 0.1 --reps 16 --seed 1", 0),
    ("validate --mss 512 --reps 20 --seed 1 --format jsonl", 0),
    ("sweep --axis ber --grid 1e-5:1e-3:log:3", 0),
    ("sweep --axis alpha --grid 1e-3,2 --fragments fit --format jsonl", 0),
    ("frontier --family r --values 1,3 --h-range 1:2", 0),
    ("frontier --family alpha --values 1e-3,1e-2 -r 1 --fragments fit --h-range 1:2", 0),
]


def defined() -> dict[str, object]:
    """Each module-level function and class method defined in ``src/``, as
    "module.qualname", to its code object."""
    codes = {}
    for info in pkgutil.iter_modules(lln_energy.__path__):
        module = importlib.import_module(f"lln_energy.{info.name}")
        for obj in vars(module).values():
            own_class = inspect.isclass(obj) and obj.__module__ == module.__name__
            for fn in vars(obj).values() if own_class else [obj]:
                # a static or class method's function, a property's getter,
                # a cached function's body
                fn = inspect.unwrap(getattr(fn, "__func__", getattr(fn, "fget", fn)))
                if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                    codes[f"{info.name}.{fn.__qualname__}"] = fn.__code__
    return codes


def test_every_function_in_src_is_reached_or_named(tmp_path, monkeypatch):
    (tmp_path / "hetero.ini").write_text(HETERO_INI)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    cli.build_parser.cache_clear()  # a cached body runs once per process
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for line, _ in LINES:
            codes.append(cli.main(line.split()))
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in LINES]
    unreached = {name for name, code in defined().items() if code not in called}
    assert sorted(unreached - ALLOWED) == []
    # each helper is still defined, and still needs its entry
    assert sorted(set(HELPERS) - unreached) == []

