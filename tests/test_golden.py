"""The reference outputs, pinned byte for byte by the sha256 of their stdout.

Each invocation runs in-process through ``cli.main``. Reruns must stay
byte-identical, and so must a change that is meant to keep every output: an
unintended byte change at any of these commands fails here. A change that
moves an output on purpose re-pins that entry and says why in CHANGES.md.

The digests were taken with glibc 2.36 on x86-64 under CPython 3.11, and they
pin that libm as well as the package: ``exp``, ``expm1`` and the ``10 ** k``
of ``geometric_grid`` may differ in the last bit on another platform.
"""

import hashlib
import shlex

import pytest

from thermoprobe import cli

GOLDEN = {
    "equilibrium-scan": "3ac83e02184b0ffc97f0c59f3fe45245c5ba2bbe0ffb992740927dd8a1c65042",
    "equilibrium-scan --format json": "30885cf0dfa67a76c3ba425851ba50db3239a348b140e39421bd3074e2c2ca23",
    "optimal-gap": "61b4661123f9bc4251ca33882e107b3db5df11fbeb453008c820a304e5ef8b9c",
    "optimal-gap --format json": "99e95f62ff4a12fac443cdcae625c51b8c7b2c66cacac556822e4b62c3790d25",
    "hessian-check": "aab9e53d19fb9d6f957e70725fc05476a3e2af0ce6c4a5a004ee79a4660e8b37",
    "hessian-check --format json": "72f5163c4ea8f9bb28f1b3265645100299c85db9f554e6034199c65e0e903c2d",
    "transient-scan": "f7839877d4c2f95447e98c720bff930d881e1d459f3b659ed60241eedc413676",
    "transient-scan --format json": "9e6fb96159c13d493508c1f9cfb68854d5c54c16ba082d190cf23ac7c5b74e4f",
    "limits": "a8bcb77703f78c32d25065dfd4c66912d2be85cb88066e48c568617b2ec4fbe5",
    "limits --format json": "5426e71e1230b75464645efd7c2577e6fa697d7074933ed3424e39136dde829e",
    "hessian-check --n-max 5000": "2c05400e41684bfd8b4e52198301c8a30ba5193e46bd9206b2a7bd9b986add45",
    "equilibrium-scan --points 20000 --format json":
        "e95e51c6449e089d297941a8d4a9b790633ce1e90d6da109885c451c304287d5",
    "optimal-gap --n 10..64 --n0 1..9 --temperature 0.73":
        "70dd63464aceac3bbd7e418ac08fb964ae4e25b0f5fe009151105e98445a35eb",
    "transient-scan --include-plus --include-harmonic --points 2000":
        "a05f633980bb0cf26493d79c7c636f07576cf7d5a5b8435d4330eb015eb2300a",
    'transient-scan --t-prep ""': "3abf878fca59f6cac14249bfa7b53a7dc40989a687a092dc39944ad20a3d68db",
    "equilibrium-scan --x-max 1e300 --points 50":
        "4f637218b552c222d0d924a36bd07720a90d39c97f7a46c764a542de78a98ad1",
    # the oscillator at both ends of x: e^{-x/2} underflows, and x/2 underflows
    "equilibrium-scan --x-max 1.7976931348623157e308 --points 50":
        "957ba434f48772fdc1ad49a10cb07d4b8c1da25449d80a811cd211e6b908d9f1",
    "equilibrium-scan --gap 1e-16 --x-min 5e-324 --x-max 1 --points 3":
        "6764c01114ed693f6bc6a45de339e629d0265dc12f6eead968e827c04c4763cb",
    # two-level values that are normal floats where x^2, the denominator or the root squared is not
    "equilibrium-scan --gap 1e-300 --x-min 1e-181 --x-max 1e-180 --points 2 --n 2 --no-harmonic":
        "f12df9c45c2d74f77ce566d2ecac5f15f966c658cfa641a7c771887481d83bfe",
    "equilibrium-scan --gap 1e-300 --x-min 1e-163 --x-max 1e-160 --points 2 --n 1000000 --no-harmonic":
        "a749526761dfa47ec973c460612f25348ae12f4eabfe976f50c60f1125fbdd5e",
    # both curves where e^{-x/2} is subnormal and the values are normal floats
    "equilibrium-scan --gap 1e-300 --x-min 1450 --x-max 2100 --points 6 --n 2":
        "e0f3c648e2a45ac05a1bd4ca291f41c0aff9dd83a529b0eddf800c638b103e3a",
}


@pytest.mark.parametrize("invocation", list(GOLDEN))
def test_reference_output_is_byte_identical(invocation, capsys):
    assert cli.main(shlex.split(invocation)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN[invocation]
