"""The compare logic of ``tools/fingerprint.py``: ``encode``, ``compare`` and
the exit code of ``--compare``, on synthetic JSON only; no fingerprint is
computed."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from hotspotplan import errors

_SPEC = importlib.util.spec_from_file_location(
    "fingerprint", Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fingerprint)

A = {"tiny/a/value": (0.1).hex(), "tiny/a/paths": [[[0, 0], [0, 1]]], "closure/0": []}


def test_encode_writes_floats_bit_exactly():
    value = 0.1 + 0.2
    assert fingerprint.encode(value) == "0x1.3333333333334p-2"
    assert fingerprint.encode(np.float64(value)) == fingerprint.encode(value)
    assert fingerprint.encode(0.3) != fingerprint.encode(value)  # one ulp apart
    assert fingerprint.encode((1, True, None, "x", np.array([0.5, 2.0]))) == [
        1, True, None, "x", ["0x1.0000000000000p-1", "0x1.0000000000000p+1"]]


def test_record_keeps_a_raise_as_the_value():
    out = {}
    fingerprint.record(out, "k", lambda: 1.5)
    fingerprint.record(out, "bad", lambda: 1 / 0)
    assert out == {"k": "0x1.8000000000000p+0", "bad": "raises ZeroDivisionError: division by zero"}


def test_identical_fingerprints_compare_clean():
    assert fingerprint.compare(A, json.loads(json.dumps(A))) == []


def test_compare_lists_every_changed_added_and_dropped_key():
    b = dict(A)
    b["tiny/a/value"] = np.nextafter(0.1, 1.0).hex()  # one ulp
    del b["closure/0"]
    b["closure/1000"] = ["4x4 lgp seed 1000: ..."]
    assert fingerprint.compare(A, b) == [
        'tiny/a/value: "0x1.999999999999ap-4" -> "0x1.999999999999bp-4"',
        "closure/0: [] -> (absent)",
        'closure/1000: (absent) -> ["4x4 lgp seed 1000: ..."]',
    ]
    c = dict(A, **{"tiny/a/paths": [[[0, 0], [1, 0]]]})  # a changed path
    assert fingerprint.compare(A, c) == ["tiny/a/paths: [[[0, 0], [0, 1]]] -> [[[0, 0], [1, 0]]]"]


def test_compare_exits_nonzero_on_any_difference(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(A))
    b.write_text(json.dumps(A))
    assert fingerprint.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "identical: 3 keys\n"
    b.write_text(json.dumps(dict(A, **{"closure/0": ["4x4 lgp seed 0: ..."]})))
    assert fingerprint.main(["--compare", str(a), str(b)]) == 1
    captured = capsys.readouterr()
    assert captured.out == 'closure/0: [] -> ["4x4 lgp seed 0: ..."]\n'
    assert captured.err == "1 of 3 keys differ\n"


def test_every_raise_in_the_tiny_fingerprint_is_a_library_error():
    # the tool records a raise as an output; a call the library no longer
    # accepts (a TypeError, say) must fail here, not show up as a changed key
    out = {}
    fingerprint._tiny(out)

    def library_error(value):
        cls = getattr(errors, value.removeprefix("raises ").split(":", 1)[0], None)
        return isinstance(cls, type) and issubclass(cls, errors.HotspotPlanError)

    raised = {key: value for key, value in out.items()
              if isinstance(value, str) and value.startswith("raises ")}
    assert raised and {key: value for key, value in raised.items()
                       if not library_error(value)} == {}
