"""Record store tests: hash determinism, idempotent appends, schema guards."""

import pytest

from pannkit import records as rec


class TestConfigHash:
    def test_key_order_invariant(self):
        a = {"lr": 0.1, "seed": 3, "arch": "mlp"}
        b = {"arch": "mlp", "seed": 3, "lr": 0.1}
        assert rec.config_hash(a) == rec.config_hash(b)

    def test_nested_and_value_sensitivity(self):
        base = {"sgd": {"lr": 0.1, "momentum": 0.9}, "seed": 1}
        assert rec.config_hash(base) != rec.config_hash(
            {"sgd": {"lr": 0.1, "momentum": 0.9}, "seed": 2})
        assert rec.config_hash(base) == rec.config_hash(
            {"seed": 1, "sgd": {"momentum": 0.9, "lr": 0.1}})

    def test_canonical_json_compact(self):
        assert rec.canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_pinned_preimage(self):
        # the hash covers the numerics version, so bumping it misses every
        # stored cell; this pins the preimage layout and its digest
        cfg = {"seed": 1, "arch": "mlp"}
        assert rec.NUMERICS_VERSION == 1
        assert rec.canonical_json({"numerics_version": 1, "config": cfg}) \
            == '{"config":{"arch":"mlp","seed":1},"numerics_version":1}'
        assert rec.config_hash(cfg) == "0c16a2b92fd6e861"

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            rec.canonical_json({"x": float("nan")})


class TestTimestamp:
    def test_source_date_epoch_pins(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        assert rec.timestamp() == "2023-11-14T22:13:20+00:00"
        assert rec.timestamp() == rec.timestamp()

    def test_unpinned_is_utc_iso(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        assert rec.timestamp().endswith("+00:00")


def _record(chash="aa" * 8, seed=0, value=0.5):
    return {"config_hash": chash, "timestamp": "2024-01-01T00:00:00+00:00",
            "arch": "mlp", "dataset": "blobs", "method": "vanilla",
            "wd": 0.0, "precision": "beta=6", "seed": seed,
            "metric": "accuracy", "value": value}


class TestRecordStore:
    def test_creates_header(self, tmp_path):
        store = rec.RecordStore(tmp_path / "r.csv")
        text = (tmp_path / "r.csv").read_text()
        assert text.strip() == ",".join(rec.RECORD_COLUMNS)
        assert store.read_rows() == []

    def test_append_and_read_back(self, tmp_path):
        store = rec.RecordStore(tmp_path / "r.csv")
        n = store.append_rows([_record(seed=0), _record(seed=1)])
        assert n == 2
        rows = store.read_rows()
        assert len(rows) == 2
        assert rows[0]["metric"] == "accuracy"
        assert float(rows[1]["value"]) == 0.5

    def test_idempotent_skip(self, tmp_path):
        store = rec.RecordStore(tmp_path / "r.csv")
        store.append_rows([_record()])
        before = (tmp_path / "r.csv").read_bytes()
        assert store.append_rows([_record(value=0.9)]) == 0
        assert (tmp_path / "r.csv").read_bytes() == before

    def test_force_overrides_skip(self, tmp_path):
        store = rec.RecordStore(tmp_path / "r.csv")
        store.append_rows([_record()])
        assert store.append_rows([_record(value=0.9)], force=True) == 1
        assert len(store.read_rows()) == 2

    def test_reopen_preserves_rows(self, tmp_path):
        rec.RecordStore(tmp_path / "r.csv").append_rows([_record()])
        store = rec.RecordStore(tmp_path / "r.csv")
        assert store.has("aa" * 8)
        assert not store.has("bb" * 8)

    def test_hashes_read_once_and_tracked(self, tmp_path, monkeypatch):
        rec.RecordStore(tmp_path / "r.csv").append_rows([_record()])
        store = rec.RecordStore(tmp_path / "r.csv")
        reads = []
        monkeypatch.setattr(store, "read_rows", lambda: reads.append(1))
        assert store.has("aa" * 8)
        assert store.append_rows([_record(value=0.9)]) == 0
        assert store.append_rows([_record(chash="cc" * 8)]) == 1
        assert store.has("cc" * 8)
        assert reads == []

    def test_schema_mismatch_rejected(self, tmp_path):
        rec.RecordStore(tmp_path / "r.csv", columns=rec.RECORD_COLUMNS)
        with pytest.raises(ValueError, match="does not match schema"):
            rec.RecordStore(tmp_path / "r.csv", columns=rec.SWEEP_COLUMNS)

    def test_row_key_validation(self, tmp_path):
        store = rec.RecordStore(tmp_path / "r.csv")
        with pytest.raises(ValueError, match="missing"):
            store.append_rows([{"config_hash": "x"}])

    def test_sweep_schema(self, tmp_path):
        store = rec.RecordStore(tmp_path / "s.csv", columns=rec.SWEEP_COLUMNS)
        row = {c: "0" for c in rec.SWEEP_COLUMNS}
        assert store.append_rows([row]) == 1
        assert store.read_rows()[0]["t_prime"] == "0"

    def test_rows_read_typed(self, tmp_path):
        store = rec.RecordStore(tmp_path / "r.csv")
        store.append_rows([_record(seed=-2, value=0.25),
                           _record(chash="bb" * 8, seed="mean")])
        first, mean = store.read_rows()
        assert (first["wd"], first["seed"], first["value"]) == (0.0, -2, 0.25)
        assert (mean["seed"], mean["precision"]) == ("mean", "beta=6")

    @pytest.mark.parametrize("line, why", [
        ("aa,t,mlp,blobs,vanilla,0.0,beta=6,0,accuracy,abc",
         "could not convert string to float: 'abc'"),
        ("aa,t,mlp,blobs,vanilla,0.0,beta=6,1.5,accuracy,0.5",
         "invalid literal for int"),
        ("aa,t,mlp,blobs,vanilla,zero,beta=6,0,accuracy,0.5",
         "could not convert string to float: 'zero'"),
        ("aa,t,mlp,blobs,vanilla,0.0,bet", "expected 10 comma-separated"),
        ("aa,t,mlp,blobs,vanilla,0.0,beta=6,0,accuracy,0.5,7",
         "expected 10 comma-separated")])
    def test_malformed_row_named_by_line(self, tmp_path, line, why):
        path = tmp_path / "r.csv"
        rec.RecordStore(path).append_rows([_record()])
        with path.open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError) as exc:
            rec.RecordStore(path)
        assert str(exc.value).startswith(f"{path}: line 3: {why}")

    def test_value_round_trip_exact(self, tmp_path):
        store = rec.RecordStore(tmp_path / "r.csv")
        v = 0.1234567890123456789
        store.append_rows([_record(value=v)])
        assert float(store.read_rows()[0]["value"]) == v
