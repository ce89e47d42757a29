"""Unit tests for the checkpoint file format (repro.sim.checkpoint)."""

import json

import pytest

from repro.errors import CheckpointError
from repro.sim.checkpoint import (
    Checkpoint,
    checkpoint_path,
    read_checkpoint,
    state_digest,
)


def make_checkpoint(**changes):
    fields = dict(
        sequence=2,
        time=60.0,
        dispatched=1234,
        config={"seed": 7},
        config_hash=state_digest({"seed": 7}),
        seed=7,
        every=30.0,
        state={"dns": {"resolutions": 3}},
        digest=state_digest({"dns": {"resolutions": 3}}),
        engine_version="0.0.0",
    )
    fields.update(changes)
    return Checkpoint(**fields)


def write_raw(directory, data):
    path = checkpoint_path(directory, 2)
    path.write_text(json.dumps(data))
    return path


class TestFromDict:
    def test_defaulted_field_may_be_absent(self):
        data = make_checkpoint().to_dict()
        del data["engine_mode"]
        assert Checkpoint.from_dict(data).engine_mode == "event"

    def test_non_object_names_the_file(self, tmp_path):
        path = write_raw(tmp_path, [1])
        with pytest.raises(CheckpointError, match="a JSON list") as excinfo:
            read_checkpoint(path)
        assert str(path) in str(excinfo.value)

    def test_missing_field_names_file_and_field(self, tmp_path):
        data = make_checkpoint().to_dict()
        del data["state"]
        path = write_raw(tmp_path, data)
        with pytest.raises(CheckpointError, match="'state' is missing") as excinfo:
            read_checkpoint(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize(
        "field, junk",
        [
            ("time", "60"),
            ("sequence", 2.5),
            ("dispatched", True),
            ("config", [1]),
            ("state", None),
            ("digest", 0),
            ("engine_mode", ["event"]),
        ],
    )
    def test_wrong_json_type_names_the_field(self, field, junk):
        data = make_checkpoint().to_dict()
        data[field] = junk
        with pytest.raises(CheckpointError, match=f"field {field!r} must be"):
            Checkpoint.from_dict(data)
