package twsim_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	twsim "repro"
)

// replSeedDB builds a small WAL-enabled primary holding single adds, a
// batch add, and a remove, so both replica wire formats have a valid seed.
func replSeedDB(f *testing.F) *twsim.DB {
	f.Helper()
	db, err := twsim.Create(f.TempDir(), twsim.Options{WAL: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	for _, s := range [][]float64{{1, 2, 3, 2}, {0.5, 1.5}} {
		if _, err := db.Add(s); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := db.AddAll([][]float64{{4, 4, 5}, {7}, {2, 1, 0, -1, -2}}); err != nil {
		f.Fatal(err)
	}
	if _, err := db.Remove(1); err != nil {
		f.Fatal(err)
	}
	return db
}

// replicaMustStayConsistent fails the test unless a replica that a decoded
// input was applied to — fully, or partly before a rejection — passes the
// full heap/index integrity check.
func replicaMustStayConsistent(t *testing.T, db *twsim.DB) {
	t.Helper()
	if err := db.Verify(); err != nil {
		t.Fatalf("replica inconsistent after applying decoded input: %v", err)
	}
}

// FuzzDecodeReplSnapshot: snapshot bytes a replica downloads from its
// primary either fail to decode, or decode into a snapshot that syncs onto
// a fresh replica (or is rejected by its write path) leaving a database
// that passes Verify. The checksum would stop nearly every mutation at the
// door, so each input is also tried with its trailer re-stamped, letting
// the fuzzer reach the record parser.
func FuzzDecodeReplSnapshot(f *testing.F) {
	var snap bytes.Buffer
	if _, err := replSeedDB(f).WriteReplSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:snap.Len()/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		inputs := [][]byte{raw}
		if len(raw) >= 4 {
			fixed := append([]byte(nil), raw...)
			body := fixed[:len(fixed)-4]
			binary.LittleEndian.PutUint32(fixed[len(body):], crc32.ChecksumIEEE(body))
			inputs = append(inputs, fixed)
		}
		for _, in := range inputs {
			snap, err := twsim.DecodeReplSnapshot(in)
			if err != nil {
				continue
			}
			db, err := twsim.OpenMem(twsim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, _, _ = twsim.SyncFromReplSnapshot(db, db.NumRecords(), snap)
			replicaMustStayConsistent(t, db)
			db.Close()
		}
	})
}

// restampWALFrames returns a copy of a WAL tail with every whole frame's
// CRC recomputed, so mutated bodies get past the per-record checksum.
func restampWALFrames(data []byte) []byte {
	out := append([]byte(nil), data...)
	for off := 0; off+4 <= len(out); {
		n := int(binary.LittleEndian.Uint32(out[off:]))
		end := off + 4 + n + 4
		if end > len(out) {
			break
		}
		binary.LittleEndian.PutUint32(out[off+4+n:], crc32.ChecksumIEEE(out[off+4:off+4+n]))
		off = end
	}
	return out
}

// FuzzParseWALRecords: a WAL tail a replica streams from its primary
// either fails to parse, or parses into records that apply to a fresh
// replica (or are rejected as diverged) leaving a database that passes
// Verify. Each input is also tried with its frame checksums re-stamped.
func FuzzParseWALRecords(f *testing.F) {
	db := replSeedDB(f)
	tail, _, err := db.WALTail(0, 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tail, uint64(1))
	f.Add(tail, uint64(2))
	f.Add(tail[:len(tail)-3], uint64(1))
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, firstSeq uint64) {
		for _, in := range [][]byte{data, restampWALFrames(data)} {
			recs, err := twsim.ParseWALRecords(in, firstSeq)
			if err != nil {
				continue
			}
			db, err := twsim.OpenMem(twsim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, _, _ = twsim.ApplyWALRecords(db, db.NumRecords, recs)
			replicaMustStayConsistent(t, db)
			db.Close()
		}
	})
}
