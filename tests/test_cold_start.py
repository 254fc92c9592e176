"""The cold path of a barlog process: `import barlog` loads only the
exception types, each command loads only the modules it uses and
builds only its own subparser, numpy, dataclasses and inspect are never
loaded, not even by the quadrature oracle, and fractions and decimal
load only at the first coefficient that is not an int.

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


def run_python(code, **env):
    env = dict(os.environ, PYTHONPATH=SRC, **env)
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
     "cli defaults duality errors hyperlog ipbenv linalg relgen words"),
    (["decompose", "--degree", "3"],
     "cli defaults errors ipbenv linalg words"),
    (["verify", "--degree", "3"],
     "cli defaults duality errors formspace hyperlog ipbenv linalg relgen "
     "words"),
    (["basis", "--degree", "3"],
     "cli defaults duality errors formspace ipbenv linalg words"),
    (["phi", "--w1", "Z11,Z12", "--w2", "Z22"],
     "cli defaults duality errors formspace ipbenv linalg words"),
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
    assert out == "45 45 True True\nTrue True False False\n"


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


def test_integral_commands_leave_fractions_unloaded():
    # Every coefficient of these runs is an int.
    commands = [
        ["relations", "--degree", "4"],
        ["decompose", "--degree", "4"],
        ["decompose", "--degree", "4", "--direction", "2x1"],
        ["verify", "--degree", "3"],
    ]
    out = run_python(f"""
import contextlib, io, sys
from barlog import cli
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    print(code, 'fractions' in sys.modules, 'decimal' in sys.modules)
""")
    assert out == "0 False False\n" * len(commands)


def test_fractions_load_at_the_first_non_integral_coefficient():
    # A non-unit pivot: its inverse is the first Fraction.
    out = run_python("""
import sys
from barlog.linalg import RowReducer
red = RowReducer()
print(red.add({'a': 1, 'b': 3}, 0), 'fractions' in sys.modules)
red.add({'a': 1, 'b': 5, 'c': 4}, 1)
print('fractions' in sys.modules, 'decimal' in sys.modules)
for piv, row, combo in red.rows():
    print(piv, *(f'{k}={type(v).__name__}:{v}' for k, v in row.items()),
          *(f'{k}={type(v).__name__}:{v}' for k, v in combo.items()))
""")
    assert out == ("None False\nTrue True\n"
                   "a a=int:1 c=int:-6 0=Fraction:5/2 1=Fraction:-3/2\n"
                   "b b=int:1 c=int:2 1=Fraction:1/2 0=Fraction:-1/2\n")
    # A Fraction made by the caller before linalg has looked fractions
    # up still collapses to an int when integral; a float is untouched.
    out = run_python("""
from fractions import Fraction
from barlog import linalg
print(linalg.Fraction)
t = linalg.vec_add_into({}, {'k': Fraction(2, 2), 'h': Fraction(1, 3),
                             'x': 0.5})
print(*(f'{k}={type(v).__name__}:{v}' for k, v in t.items()))
""")
    assert out == "None\nk=int:1 h=Fraction:1/3 x=float:0.5\n"
    out = run_python("""
import sys
from barlog.words import WordPoly
print('fractions' in sys.modules)
p = WordPoly(['z1'], [(['z1'], '1/3'), ([], '4/2')])
print(*(f'{w}={type(c).__name__}:{c}' for w, c in p.sorted_terms()))
""")
    assert out == "False\n()=int:2 ('z1',)=Fraction:1/3\n"


def test_a_command_builds_only_its_own_subparser():
    commands = [
        ["basis", "--degree", "1"],
        ["phi", "--w1", "Z11", "--w2", "Z22"],
        ["relations", "--degree", "1"],
        ["harmonic", "--left", "1", "--right", "1"],
        ["eval", "--term", "L[1|one]@z1", "--z1", "0.3", "--z2", "0.4"],
        ["decompose", "--degree", "1"],
        ["verify", "--degree", "1"],
        # A flag before the command needs every subparser.
        ["--format", "text", "decompose", "--degree", "1"],
    ]
    out = run_python(f"""
import argparse, contextlib, io
from barlog import cli
built = []
add_parser = argparse._SubParsersAction.add_parser
def counted(self, name, **kwargs):
    built.append(name)
    return add_parser(self, name, **kwargs)
argparse._SubParsersAction.add_parser = counted
for argv in {commands!r}:
    built.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    print(code, *built)
""")
    assert out.split("\n") == (
        [f"0 {argv[0]}" for argv in commands[:-1]]
        + ["0 basis phi relations harmonic eval decompose verify", ""])


# SHA-256 of the --help output of the top level and of each command at
# 80 columns, as the parser with every subparser printed it before a
# command built only its own (harmonic's since it took --tol).
HELP_SHA256 = {
    "": "74cb673b0ef22ec9eba66ceec1fdd619ead9a874eec325f4612373c2b9c5b3dd",
    "basis":
        "e8c4c8f802024898d1d08c743de3540923634994f0f03ebb478ff3f3b82e12be",
    "phi": "f13cdf1b3433164edac7806214077a83f711093f01c1cbe501457ce68910ba3e",
    "relations":
        "1a284ecdefb67ee9d926a0157b8c8676441d3763a5a191399133974d8ddea89f",
    "harmonic":
        "1f33cd90b805420960e95c46bdd7883eb52f5052be2c8ce4cc81196f16987606",
    "eval":
        "12a61829d8b491467f2cd597776ff3f29a6d536afe6b16bd9d3fffeb342d1499",
    "decompose":
        "f3087b1f48d542ef97f6dfd6f0d56cf9a12ff66ad7c6ebc49ec66d671f1d439d",
    "verify":
        "be39fce4ee820ac75fa1c5454eda7e1f31000a8b16ac88b93b02265c07ccf671",
}


def test_help_output_is_unchanged():
    out = run_python(f"""
import contextlib, hashlib, io
from barlog import cli
for command in {list(HELP_SHA256)!r}:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli.run([command, '--help'] if command else ['--help'])
        except SystemExit as exc:
            code = exc.code
    print(code, hashlib.sha256(buf.getvalue().encode()).hexdigest())
""", COLUMNS="80")
    assert out.split("\n")[:-1] == [f"0 {digest}"
                                     for digest in HELP_SHA256.values()]
