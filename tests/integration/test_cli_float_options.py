"""Every float option rejects NaN with a ConfigError, generated from the
pinned option table.

``tests/integration/cli_options.json`` lists every subcommand's options;
each ``type: "float"`` option is run with ``nan`` through
:func:`repro.__main__.main` in process.  ``__main__`` turns the
:class:`~repro.errors.ConfigError` into ``error: <message>`` and exit 2;
any other exception (a ``ValueError`` or ``OverflowError`` traceback) is a
failure.  A float flag added later is covered without editing this file.
An option its command reads only under another flag (``ACTIVATORS``) is
run both with that flag and, with ``nan`` and ``±inf``, without it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.errors import ConfigError

OPTIONS = json.loads((Path(__file__).parent / "cli_options.json").read_text())

#: the flags that make an otherwise ignored option take effect
ACTIVATORS = {
    ("serve", "--burst-factor"): ("--arrival", "bursty"),
    ("serve", "--burst-fraction"): ("--arrival", "bursty"),
    ("serve", "--burst-period"): ("--arrival", "bursty"),
    ("capacity", "--peak-rate"): ("--forecast", "diurnal"),
    ("capacity", "--day-s"): ("--forecast", "diurnal", "--peak-rate", "600"),
}


def _positionals(command: str):
    """A valid value for each required positional (its first choice)."""
    return [
        opt["choices"][0]
        for opt in OPTIONS[command]
        if not opt["flags"] and opt["required"] and opt["choices"]
    ]


FLOAT_OPTIONS = [
    (command, opt["flags"][-1])
    for command, opts in OPTIONS.items()
    for opt in opts
    if opt["type"] == "float"
]


def _argv(command, flag, value):
    return [command, *_positionals(command), flag, value,
            *ACTIVATORS.get((command, flag), ())]


def test_the_table_has_float_options():
    assert len(FLOAT_OPTIONS) >= 34


@pytest.mark.parametrize(
    "command, flag", FLOAT_OPTIONS, ids=[f"{c} {f}" for c, f in FLOAT_OPTIONS]
)
def test_nan_is_a_config_error(command, flag):
    with pytest.raises(ConfigError, match="nan"):
        main(_argv(command, flag, "nan"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag", sorted(ACTIVATORS), ids=[f"{c} {f}" for c, f in sorted(ACTIVATORS)]
)
def test_non_finite_is_a_config_error_without_the_activator(command, flag, value):
    """An option its command reads only under another flag is still
    checked when that flag is absent."""
    with pytest.raises(ConfigError, match=f"must be a finite number, got {value}"):
        main([command, *_positionals(command), f"{flag}={value}"])


@pytest.mark.parametrize(
    "argv",
    [
        ["autoscale", "--epoch-s", "inf"],
        ["autoscale", "--headroom", "inf", "--days", "1"],
    ],
    ids=["epoch-s", "headroom"],
)
def test_autoscale_rejects_infinity(argv):
    with pytest.raises(ConfigError, match="got inf"):
        main(argv)
