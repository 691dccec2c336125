import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tritcodes
from tritcodes import dualspectrum, polyring
from tritcodes.codebuilder import build_code
from tritcodes.gf3m import make_field


@pytest.fixture(scope="session")
def ctx3():
    return make_field(3)


@pytest.fixture(scope="session")
def ctx5():
    return make_field(5)


@pytest.fixture(scope="session")
def ctx7():
    return make_field(7)


@pytest.fixture(scope="session")
def ctx9():
    return make_field(9)


@pytest.fixture(scope="session")
def code3(ctx3):
    return build_code(ctx3)


@pytest.fixture(scope="session")
def code5(ctx5):
    return build_code(ctx5)


@pytest.fixture(scope="session")
def code7(ctx7):
    return build_code(ctx7)


def fresh_python(argv, *drop_env, **kwargs):
    """Run python with argv in a new interpreter that imports the tritcodes
    this process imported, stdout and stderr captured as bytes unless kwargs
    say otherwise.  PYTHONUNBUFFERED and the variables in drop_env are
    removed, so stdout is block-buffered, as in a shell that redirects it."""
    drop = {"PYTHONUNBUFFERED", *drop_env}
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = str(Path(tritcodes.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *argv], env=env, timeout=120, **kwargs)


def seeded_primitive_moduli(m, count, seed):
    """count distinct primitive moduli of degree m, drawn by random.Random(seed)."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        f = (*(rng.randrange(3) for _ in range(m)), 1)
        if f not in found and polyring.is_primitive(f):
            found.append(f)
    return found


@functools.cache
def transform(m):
    """The Walsh transform at every pi^s under the default modulus, once per m."""
    return dualspectrum._fhat_all(make_field(m))


@functools.cache
def spectral_enum(m):
    """The spectral dual enumerator under the default modulus, from transform(m)."""
    return dualspectrum._from_transform(make_field(m), transform(m))


@pytest.fixture(scope="session")
def enum5():
    return spectral_enum(5)


@pytest.fixture(scope="session")
def enum7():
    return spectral_enum(7)


@pytest.fixture(scope="session")
def enum9():
    return spectral_enum(9)


# Paper fixture values, ascending trit lists.
GEN_M5 = (2, 2, 0, 1, 0, 2, 2, 0, 2, 1, 1)
GEN_M7 = (2, 1, 1, 1, 0, 2, 0, 2, 2, 1, 1, 0, 2, 0, 1)
GEN_M9 = (2, 1, 1, 0, 2, 1, 2, 0, 1, 0, 2, 2, 1, 0, 1, 0, 1, 2, 1)

ENUM_M5 = {0: 1, 144: 2420, 153: 12100, 162: 34364, 171: 7744, 180: 2420}
ENUM_M7 = {
    0: 1,
    1404: 153020,
    1431: 1040536,
    1458: 2513900,
    1485: 922492,
    1512: 153020,
}
ENUM_M9 = {
    0: 1,
    12960: 10628280,
    13041: 88214724,
    13122: 192922964,
    13203: 85026240,
    13284: 10628280,
}
