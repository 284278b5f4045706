"""Tests for the hardened persistent verdict cache: CRC'd records,
truncated/torn/corrupt line tolerance, OSError degradation, legacy
records, and compaction."""

import json
import os

from repro.oraql import VerdictCache
from repro.oraql.cache import CACHE_SCHEMA_VERSION


def cache_at(tmp_path):
    return VerdictCache(str(tmp_path / "cache"))


class TestRoundTrip:
    def test_put_get_with_triage(self, tmp_path):
        c = cache_at(tmp_path)
        c.put("fp:h1", True, triage="ok")
        c.put("fp:h2", False, triage="trapped")
        r = cache_at(tmp_path)
        assert r.get_record("fp:h1") == (True, "ok")
        assert r.get_record("fp:h2") == (False, "trapped")
        assert r.get("fp:h1") is True
        assert r.get("fp:none") is None
        assert r.hits == 3 and r.misses == 1

    def test_duplicate_put_not_rewritten(self, tmp_path):
        c = cache_at(tmp_path)
        c.put("fp:h1", True, triage="ok")
        size = os.path.getsize(c.path)
        c.put("fp:h1", True, triage="ok")
        assert os.path.getsize(c.path) == size

    def test_legacy_record_without_crc_accepted(self, tmp_path):
        c = cache_at(tmp_path)
        with open(c.path, "a") as f:
            f.write(json.dumps({"v": CACHE_SCHEMA_VERSION,
                                "key": "fp:old", "ok": True}) + "\n")
        r = cache_at(tmp_path)
        assert r.get("fp:old") is True
        assert r.corrupt_records == 0


class TestCorruptionTolerance:
    def test_truncated_final_line(self, tmp_path):
        c = cache_at(tmp_path)
        c.put("fp:h1", True)
        c.put("fp:h2", False)
        with open(c.path, "rb+") as f:
            f.truncate(f.seek(0, 2) - 11)
        r = cache_at(tmp_path)
        assert r.get("fp:h1") is True
        assert "fp:h2" not in r
        assert r.corrupt_records == 1

    def test_crc_mismatch_skipped(self, tmp_path):
        c = cache_at(tmp_path)
        c.put("fp:h1", True, triage="ok")
        with open(c.path) as f:
            line = f.read()
        with open(c.path, "w") as f:
            f.write(line.replace('"ok":true', '"ok":false'))
        r = cache_at(tmp_path)
        assert "fp:h1" not in r
        assert r.corrupt_records == 1

    def test_garbage_lines_counted_not_fatal(self, tmp_path):
        c = cache_at(tmp_path)
        c.put("fp:h1", True)
        with open(c.path, "a") as f:
            f.write("not json\n")
            f.write(json.dumps(["a", "list"]) + "\n")
            f.write(json.dumps({"v": CACHE_SCHEMA_VERSION,
                                "key": 42, "ok": "yes"}) + "\n")
        r = cache_at(tmp_path)
        assert r.get("fp:h1") is True
        assert r.corrupt_records == 3

    def test_foreign_schema_ignored_silently(self, tmp_path):
        c = cache_at(tmp_path)
        with open(c.path, "a") as f:
            f.write(json.dumps({"v": CACHE_SCHEMA_VERSION + 1,
                                "key": "fp:x", "ok": True}) + "\n")
        r = cache_at(tmp_path)
        assert "fp:x" not in r
        assert r.corrupt_records == 0

    def test_unreadable_file_is_cold_cache(self, tmp_path):
        c = cache_at(tmp_path)
        os.mkdir(c.path)  # the cache *file* path is now a directory
        r = VerdictCache(str(tmp_path / "cache"))
        assert len(r) == 0
        assert r.load_errors == 1
        r.put("fp:h1", True)  # appends fail but must not raise
        assert r.dropped_writes == 1
        assert r.get("fp:h1") is True  # still served from memory

    def test_refresh_picks_up_concurrent_appends(self, tmp_path):
        a = cache_at(tmp_path)
        b = cache_at(tmp_path)
        a.put("fp:h1", True, triage="ok")
        assert "fp:h1" not in b
        b.refresh()
        assert b.get_record("fp:h1") == (True, "ok")


class TestCompaction:
    def test_compact_dedups_and_drops_corruption(self, tmp_path):
        c = cache_at(tmp_path)
        c.put("fp:h1", True)
        c.put("fp:h2", False, triage="trapped")
        with open(c.path, "a") as f:
            f.write("torn garbage\n")
            # a superseding duplicate, as concurrent writers produce
            f.write(VerdictCache._encode("fp:h1", True, "ok") + "\n")
        before, after = c.compact()
        assert before == 4 and after == 2
        r = cache_at(tmp_path)
        assert r.corrupt_records == 0
        assert r.get_record("fp:h1") == (True, "ok")
        assert r.get_record("fp:h2") == (False, "trapped")

    def test_stats(self, tmp_path):
        c = cache_at(tmp_path)
        c.put("fp:h1", True)
        c.get("fp:h1")
        c.get("fp:h2")
        s = c.stats()
        assert s["records"] == 1
        assert s["hits"] == 1 and s["misses"] == 1
        assert s["corrupt_records"] == 0
        assert s["dropped_writes"] == 0
        assert s["load_errors"] == 0
        assert s["path"] == c.path


class TestAnswerRecords:
    """Answer logs (repro.oraql.replay) stored beside the verdicts."""

    LOG = (5, frozenset({1, 3}))

    def _answers(self, cache):
        return cache.answers("fp:setup")

    def test_round_trip(self, tmp_path):
        c = cache_at(tmp_path)
        c.put_answers("fp:setup", self.LOG, "exe1")
        c.put_answers("fp:setup", self.LOG, "exe1")  # not rewritten
        with open(c.path) as f:
            assert len(f.readlines()) == 1
        r = cache_at(tmp_path)
        assert self._answers(r) == [(5, frozenset({1, 3}), "exe1")]
        assert r.answers("fp:other") == []
        # answer records are not verdicts, nor verdict lookups
        assert len(r) == 0 and r.hits == r.misses == 0
        assert r.stats()["answer_records"] == 1

    def test_torn_answer_record_is_corrupt(self, tmp_path):
        c = cache_at(tmp_path)
        c.put_answers("fp:setup", self.LOG, "exe1")
        c.put_answers("fp:setup", (7, frozenset()), "exe2")
        with open(c.path, "rb+") as f:
            f.truncate(f.seek(0, 2) - 9)
        r = cache_at(tmp_path)
        assert self._answers(r) == [(5, frozenset({1, 3}), "exe1")]
        assert r.corrupt_records == 1

    def test_crc_bad_answer_record_is_never_trusted(self, tmp_path):
        c = cache_at(tmp_path)
        c.put_answers("fp:setup", self.LOG, "exe1")
        with open(c.path) as f:
            rec = json.loads(f.read())
        rec["pess"] = [1]  # bit rot that still parses
        with open(c.path, "w") as f:
            f.write(json.dumps(rec) + "\n")
        r = cache_at(tmp_path)
        assert self._answers(r) == []
        assert r.corrupt_records == 1

    def test_answer_record_without_crc_is_never_trusted(self, tmp_path):
        c = cache_at(tmp_path)
        c.put_answers("fp:setup", self.LOG, "exe1")
        with open(c.path) as f:
            rec = json.loads(f.read())
        del rec["crc"]
        with open(c.path, "w") as f:
            f.write(json.dumps(rec) + "\n")
        r = cache_at(tmp_path)
        assert self._answers(r) == []
        assert r.corrupt_records == 1

    def test_foreign_code_digest_is_ignored_not_corrupt(self, tmp_path):
        c = cache_at(tmp_path)
        c.put_answers("fp:setup", self.LOG, "exe1")
        with open(c.path) as f:
            rec = json.loads(f.read())
        rec.pop("crc")
        rec["code"] = "0" * 16
        with open(c.path, "w") as f:
            f.write(VerdictCache._encode("fp:h1", True) + "\n")
            f.write(json.dumps({**rec, "crc": _crc(rec)}) + "\n")
        r = cache_at(tmp_path)
        assert self._answers(r) == []
        assert r.corrupt_records == 0
        # compaction drops it, like a foreign-schema record
        assert r.compact() == (2, 1)

    def test_compact_keeps_answer_records(self, tmp_path):
        c = cache_at(tmp_path)
        c.put("fp:h1", True, triage="ok")
        c.put_answers("fp:setup", self.LOG, "exe1")
        c.put_answers("fp:setup", (7, frozenset()), "exe2")
        with open(c.path, "a") as f:
            f.write("torn garbage\n")
        assert c.compact() == (4, 3)
        r = cache_at(tmp_path)
        assert r.corrupt_records == 0
        assert r.get_record("fp:h1") == (True, "ok")
        assert sorted(self._answers(r), key=lambda a: a[0]) == [
            (5, frozenset({1, 3}), "exe1"), (7, frozenset(), "exe2")]


def _crc(rec):
    from repro.oraql.cache import _record_crc
    return _record_crc(rec)
