"""The shipped configs, and the EIT, psa and chain configs of the CLI tests,
with one value replaced or one line deleted (the chain config also with two
such edits): the CLI answers every edit with an exit status, never an
exception, validate passes exactly the configs that run does not reject, and
no row holds a non-finite number or a number beside its flag."""

import csv
import io
import json
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fourwave.cli import main
from fourwave.config import SWEEP_COUNT_LIMIT
from test_config_cli import CHAIN_CONFIG, EIT_CONFIG, REFERENCE_CONFIG

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# Each config an edit starts from, by name: the shipped ones, and one of each
# model and reference kind they leave out, every one accepted as it stands.
TEMPLATES = {
    **{name: (CONFIGS / f"{name}.ini").read_text()
       for name in ("entangled_pair", "reference_pia", "vapor_gain_scan")},
    "eit": EIT_CONFIG.format(path="out.csv"),
    "psa": REFERENCE_CONFIG.format(path="out.csv").replace(
        "kind = pia", "kind = psa\ntheta_deg = 30\nbig_theta_deg = 45"),
    "chain": CHAIN_CONFIG.format(path="out.csv").replace("start = -0.5", "start = 0.5")
                                                .replace("stop = 0.5", "stop = 0.9"),
}
TOKENS = ("", "nan", "inf", "-inf", "-1", "0", "1e400", "1e300", "1e-300",
          "abc", "off", "json", "psa", "temperature_c")


def edited(text: str):
    """The config text with one key's value replaced by a token (that of
    count also by SWEEP_COUNT_LIMIT + 1) or one line deleted."""
    lines = text.splitlines()
    keys = [i for i, line in enumerate(lines) if "=" in line and not line.startswith(";")]

    def replaced(at, token):
        return lines[:at] + [lines[at].split("=")[0] + "= " + token] + lines[at + 1:]

    def tokens(at):
        extra = (str(SWEEP_COUNT_LIMIT + 1),) if lines[at].startswith("count") else ()
        return st.sampled_from(TOKENS + extra)

    replace = st.sampled_from(keys).flatmap(
        lambda at: st.builds(replaced, st.just(at), tokens(at)))
    delete = st.integers(0, len(lines) - 1).map(lambda at: lines[:at] + lines[at + 1:])
    return st.one_of(replace, delete).map(lambda kept: "\n".join(kept) + "\n")


def rows_of(text: str) -> tuple[list, list]:
    """The header and the rows of a CSV or JSON output."""
    if text.startswith("{"):
        payload = json.loads(text)
        return payload["schema"]["columns"], payload["rows"]
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows


def check_exit_statuses(text: str, folder: Path):
    ini, out = folder / "cfg.ini", folder / "out"
    ini.write_text(text)
    checked = main(["validate", "--config", str(ini)])
    if f"count = {SWEEP_COUNT_LIMIT + 1}" in text:     # never run a sweep that long
        assert checked == 2
    status = main(["run", "--config", str(ini), "--out", str(out)])
    assert checked in (0, 2) and status in (0, 1, 2)
    assert (checked == 0) == (status != 2)
    if status == 0:
        header, rows = rows_of(out.read_text())
        assert rows and all(len(row) == len(header) for row in rows)
        # a row with a flag holds no numbers; one without holds only finite ones
        for *cells, flag in rows:
            numbers = [float(cell) for cell in cells[1:] if cell not in ("", None)]
            assert not numbers if flag else all(map(math.isfinite, numbers)), (cells, flag)


@pytest.mark.parametrize("name", TEMPLATES)
@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_edited_config_gets_an_exit_status(tmp_path_factory, name, data):
    text = data.draw(edited(TEMPLATES[name]), label="config")
    check_exit_statuses(text, tmp_path_factory.mktemp(name))


def with_value(name: str, key: str, token: str, text: str = "") -> str:
    """The config TEMPLATES[name] (or ``text``) with the value of ``key``
    replaced by token."""
    text = text or TEMPLATES[name]
    assert f"\n{key} = " in text
    return "\n".join(f"{key} = {token}" if line.startswith(f"{key} =") else line
                     for line in text.splitlines()) + "\n"


# Edits that a draw of the test above, or a scripted probe of the same kind, once
# failed on.
@pytest.mark.parametrize("name, key, token", (
    ("vapor_gain_scan", "wavelength_nm", "1e300"),   # Doppler width squared underflowed to 0
    # noise terms, and the calibration deficit, overflowed with a numpy warning
    ("vapor_gain_scan", "optical_depth", "5e5"),
    ("vapor_gain_scan", "optical_depth", "1000001"),
    ("vapor_gain_scan", "optical_depth", "2e6"),
    ("eit", "rabi_c_mhz", "1e200"),     # rabi_c**2 overflowed in eit.susceptibility
    ("chain", "n_slices", "1e300"),     # a chain of 1e300 slices never finished
    ("psa", "big_theta_deg", "inf"),    # passed validate; run raised from math.cos
))
def test_edit_a_draw_failed_on(tmp_path, name, key, token):
    check_exit_statuses(with_value(name, key, token), tmp_path)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=edited(TEMPLATES["chain"]).flatmap(edited))
# two edits reach what one cannot: a total gain that underflowed to 0 made a
# ZeroDivisionError traceback
@example(text=with_value("chain", "n_slices", "10000", with_value("chain", "slice_gain", "1")))
def test_twice_edited_chain_gets_an_exit_status(tmp_path_factory, text):
    check_exit_statuses(text, tmp_path_factory.mktemp("chain"))


def test_dense_vapor_rows_keep_their_flags(tmp_path):
    # overflowing noise integrals and overflowing noise terms, each flagged
    check_exit_statuses(with_value("vapor_gain_scan", "optical_depth", "1000001"), tmp_path)
    _, rows = rows_of((tmp_path / "out").read_text())
    assert Counter(row[-1] for row in rows) == {
        "": 17, "error:noise_integral: overflow in the closed form": 32,
        "error:non-finite S_Nminus": 12}
