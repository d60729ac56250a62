package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/seq"
)

// envSidecar returns the bytes Save writes for es, without the CRC trailer.
func envSidecar(t testing.TB, es *EnvStore) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "envelopes.paa")
	if err := es.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw[:len(raw)-4]
}

// decodeStamped decodes body with a freshly computed CRC trailer, so a
// mutation reaches the record parser instead of failing the checksum.
func decodeStamped(body []byte) (*EnvStore, error) {
	return decodeEnvStore(binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body)))
}

func testEnvStore() *EnvStore {
	es := NewEnvStore()
	for _, id := range []seq.ID{0, 2, 5} {
		s := seq.Sequence{float64(id), 1, 4, 1, 5, 9, 2, 6, float64(id) / 2}
		e, _ := seq.ExtractPAAEnvelope(s)
		es.Put(id, e)
	}
	return es
}

// TestLoadEnvStoreRoundtrip: a saved store loads back record for record.
func TestLoadEnvStoreRoundtrip(t *testing.T) {
	es := testEnvStore()
	path := filepath.Join(t.TempDir(), "envelopes.paa")
	if err := es.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEnvStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != es.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), es.Len())
	}
	for id := seq.ID(0); id < 8; id++ {
		we, wok := es.Get(id)
		ge, gok := got.Get(id)
		if wok != gok || we != ge {
			t.Fatalf("id %d: got (%v, %v), want (%v, %v)", id, ge, gok, we, wok)
		}
	}
}

// TestLoadEnvStoreRejectsMalformed: CRC-valid sidecars with an impossible
// record count, out-of-order or too sparse IDs, or bad segment bounds are
// errors (the caller rebuilds from the heap), never a panic or a
// terabyte allocation.
func TestLoadEnvStoreRejectsMalformed(t *testing.T) {
	valid := envSidecar(t, testEnvStore())
	rec := func(body []byte, i int) []byte { return body[envHeader+i*envRecSize:] }
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"count wraps to payload", func(b []byte) []byte {
			// 1<<61 records of 264 bytes multiply to 0 mod 2^64.
			b = b[:envHeader]
			binary.LittleEndian.PutUint64(b[12:], 1<<61)
			return b
		}},
		{"count exceeds payload", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[12:], 4)
			return b
		}},
		{"duplicate ID", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(rec(b, 1), 0)
			return b
		}},
		{"decreasing ID", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(rec(b, 0), 3)
			return b
		}},
		{"first ID above the last", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(rec(b, 0), 1<<30)
			return b
		}},
		{"sparse ID", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(rec(b, 2), math.MaxUint32-1)
			return b
		}},
		{"NaN bound", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(rec(b, 1)[8:], math.Float64bits(math.NaN()))
			return b
		}},
		{"infinite bound", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(rec(b, 2)[8+8*seq.PAASegments:], math.Float64bits(math.Inf(1)))
			return b
		}},
		{"inverted bounds", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(rec(b, 0)[8:], math.Float64bits(1e9))
			return b
		}},
	}
	for _, tc := range cases {
		body := tc.mutate(append([]byte(nil), valid...))
		if es, err := decodeStamped(body); err == nil {
			t.Errorf("%s: loaded %d records, want an error", tc.name, es.Len())
		}
	}
}

// FuzzLoadEnvStore feeds mutated sidecars, CRC re-stamped so mutations reach
// the parser, to LoadEnvStore's decoder: each must be rejected or load into a store
// whose records hold the invariants the loader promises. `make fuzz-smoke`
// runs it briefly in CI.
func FuzzLoadEnvStore(f *testing.F) {
	f.Add(envSidecar(f, testEnvStore()))
	f.Add(envSidecar(f, NewEnvStore()))
	f.Fuzz(func(t *testing.T, body []byte) {
		es, err := decodeStamped(body)
		if err != nil {
			return
		}
		live := 0
		for id := range es.envs {
			e, ok := es.Get(seq.ID(id))
			if !ok {
				continue
			}
			live++
			for k := 0; k < seq.PAASegments; k++ {
				if math.IsInf(e.Min[k], 0) || math.IsInf(e.Max[k], 0) || !(e.Min[k] <= e.Max[k]) {
					t.Fatalf("id %d segment %d: loaded bounds [%v, %v]", id, k, e.Min[k], e.Max[k])
				}
			}
		}
		if live != es.Len() || len(es.envs) > maxEnvSpan*live {
			t.Fatalf("loaded %d live of %d counted over %d slots", live, es.Len(), len(es.envs))
		}
	})
}
