"""The cold path of a barlog process: `import barlog` loads only the
exception types, each command loads only the modules it uses, and
numpy, dataclasses and inspect are never loaded, not even by the
quadrature oracle.

Each check runs in a fresh interpreter, since the test process itself
has these modules loaded by other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# SHA-256 of the stdout of `barlog relations --degree 4`, as the
# benchmark's relations-d4 workload checks it.
RELATIONS_D4_SHA256 = ("854bc85d9dff63506eb57ffbacca7898"
                       "0acd62b9ff5debaf4d0ea55ae0e81eef")


def run_python(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Modules that neither `import barlog` nor any CLI command loads.
UNLOADED = ("numpy", "dataclasses", "inspect")


def test_import_and_commands_leave_numpy_unloaded():
    commands = [
        ["relations", "--degree", "3"],
        ["decompose", "--degree", "3"],
        ["basis", "--degree", "3"],
        ["verify", "--degree", "2"],
        ["eval", "--term", "L[2,1|one,param]@z1", "--z1", "0.3",
         "--z2", "0.4"],
        ["harmonic", "--left", "2", "--right", "1,1",
         "--numeric", "0.3,0.4"],
    ]
    out = run_python(f"""
import contextlib, io, sys
def loaded():
    return [m in sys.modules for m in {UNLOADED!r}]
import barlog
print(*loaded())
from barlog import cli
print(*loaded())
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    print(code, *loaded())
""")
    none = " ".join(["False"] * len(UNLOADED))
    assert out.split("\n") == ([none, none]
                               + ["0 " + none] * len(commands) + [""])


def test_relations_without_numpy():
    out = run_python("""
import contextlib, hashlib, io, sys
sys.modules['numpy'] = None
from barlog import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.run(['relations', '--degree', '4'])
print(code, hashlib.sha256(buf.getvalue().encode()).hexdigest())
""")
    assert out == f"0 {RELATIONS_D4_SHA256}\n"


def test_eval_quadrature_runs_without_numpy():
    out = run_python("""
import math, sys
import barlog
from barlog import hyperlog
from barlog.words import FORM_BASE, WordPoly
print(barlog.eval_quadrature is hyperlog.eval_quadrature)
p = WordPoly.monomial(FORM_BASE, ("z11",))
v = barlog.eval_quadrature(p, [(0, 0), (0.5, 0)], tol=1e-12)
print('numpy' in sys.modules, abs(v - math.log(2)) < 1e-12)
""")
    assert out == "True\nFalse True\n"


def test_import_barlog_loads_only_the_exception_types():
    out = run_python("""
import sys
import barlog
print(*sorted(m for m in sys.modules if m.split('.')[0] == 'barlog'))
""")
    assert out == "barlog barlog.errors\n"


# The package modules each command loads, and no others.
COMMAND_MODULES = [
    (["relations", "--degree", "3"],
     "cli duality errors hyperlog ipbenv linalg relgen words"),
    (["decompose", "--degree", "3"],
     "cli errors hyperlog ipbenv linalg words"),
]


def test_each_command_loads_only_what_it_uses():
    for argv, modules in COMMAND_MODULES:
        out = run_python(f"""
import contextlib, io, sys
from barlog import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run({argv!r})
print(code, *sorted(m[7:] for m in sys.modules if m.startswith('barlog.')))
""")
        assert out == f"0 {modules}\n", argv


def test_public_names_are_their_modules_objects():
    out = run_python("""
import importlib, sys
import barlog
names = barlog.__all__
values = {n: getattr(barlog, n) for n in names}
same = all(values[n] is getattr(importlib.import_module('barlog.' + m), n)
           for m, ns in barlog._EXPORTS.items() for n in ns)
print(len(names), len(set(names)), same,
      set(names) == {n for ns in barlog._EXPORTS.values() for n in ns})
print(barlog.relgen is sys.modules['barlog.relgen'],
      barlog.quadrature is sys.modules['barlog.quadrature'],
      hasattr(barlog, 'no_such_name'), hasattr(barlog, '_no_such_name'))
""")
    assert out == "57 57 True True\nTrue True False False\n"


def test_dir_and_star_import_cover_all():
    out = run_python("""
import barlog
print(set(barlog.__all__) <= set(dir(barlog)))
ns = {}
exec('from barlog import *', ns)
del ns['__builtins__']
print(sorted(ns) == sorted(barlog.__all__),
      all(ns[n] is getattr(barlog, n) for n in ns))
""")
    assert out == "True\nTrue True\n"
