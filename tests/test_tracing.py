"""The benchmark's trace hooks still find every function and method they patch, through
the modules that `import arboreal` exposes."""

import importlib.util
import os
import pathlib
import subprocess
import sys
import time

import arboreal
import arboreal.acceptance  # noqa: F401  (the tracer patches names in every module)
import arboreal.cli  # noqa: F401

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_traced_name():
    tracing = _load_tracing()
    functions = {key: getattr(getattr(arboreal, key[0]), key[1]) for key in tracing.FUNCTIONS}
    methods = {key: vars(getattr(getattr(arboreal, key[0]), key[1]))[key[2]]
               for key in tracing.METHODS}
    tracer = tracing.Tracer(time.perf_counter)
    tracer.install(arboreal)
    try:
        for (mod, name), original in functions.items():
            assert getattr(getattr(arboreal, mod), name) is not original, (mod, name)
        for (mod, cls, name), original in methods.items():
            assert vars(getattr(getattr(arboreal, mod), cls))[name] is not original, (cls, name)
    finally:
        tracer.uninstall()
    for (mod, name), original in functions.items():
        assert getattr(getattr(arboreal, mod), name) is original, (mod, name)
    for (mod, cls, name), original in methods.items():
        assert vars(getattr(getattr(arboreal, mod), cls))[name] is original, (cls, name)


def test_import_arboreal_exposes_the_library_modules_and_no_other_names():
    # a fresh interpreter, as the benchmark's worker starts: `import arboreal`
    # loads the seven library modules and re-exports none of their names
    script = ("import types, arboreal\n"
              "public = {n: v for n, v in vars(arboreal).items() if not n.startswith('__')}\n"
              "print(sorted(n for n, v in public.items() if isinstance(v, types.ModuleType)))\n"
              "print(hasattr(arboreal, 'MealyAutomaton'), arboreal.__version__)\n")
    src = str(pathlib.Path(arboreal.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == [
        "['catalog', 'core', 'hnn', 'levels', 'lifting', 'padic', 'words']", "False 0.1.0"]
