package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/fsx"
	"repro/internal/seq"
	"repro/internal/seqdb"
)

// EnvStore holds the PAA-reduced upper/lower envelope of every live
// sequence, indexed by sequence ID, alongside the 4-d Kim feature the
// R-tree stores. The filter phase uses it for the LB_PAA cascade tier: a
// candidate streamed from the index can be pruned against its stored
// segment profile before its sequence is ever fetched from the heap.
//
// The store is an in-memory slab (IDs are dense, so a slice indexed by ID)
// with an optional sidecar file next to the heap. It is derived data — the
// heap remains the single source of truth — so any doubt about the sidecar
// (missing, corrupt, count mismatch) is resolved by rebuilding from a heap
// scan, exactly like the feature index. Concurrency follows *seqdb.DB
// semantics: safe for concurrent readers, writers externally serialized.
type EnvStore struct {
	envs []seq.PAAEnvelope // envs[id]; Len == 0 marks an absent record
	n    int               // live entries
}

// NewEnvStore returns an empty store.
func NewEnvStore() *EnvStore { return &EnvStore{} }

// Put records the envelope for id, replacing any existing entry. All
// methods tolerate a nil receiver as an always-empty store, so callers
// composing the engine by hand (tests, tools) need not wire envelopes in.
func (es *EnvStore) Put(id seq.ID, env seq.PAAEnvelope) {
	if es == nil || env.Len == 0 {
		return
	}
	for int(id) >= len(es.envs) {
		es.envs = append(es.envs, seq.PAAEnvelope{})
	}
	if es.envs[id].Len == 0 {
		es.n++
	}
	es.envs[id] = env
}

// Get returns the envelope stored for id.
func (es *EnvStore) Get(id seq.ID) (seq.PAAEnvelope, bool) {
	if es == nil || int(id) >= len(es.envs) || es.envs[id].Len == 0 {
		return seq.PAAEnvelope{}, false
	}
	return es.envs[id], true
}

// Remove drops the envelope stored for id, if any.
func (es *EnvStore) Remove(id seq.ID) {
	if es != nil && int(id) < len(es.envs) && es.envs[id].Len != 0 {
		es.envs[id] = seq.PAAEnvelope{}
		es.n--
	}
}

// Len returns the number of live entries.
func (es *EnvStore) Len() int {
	if es == nil {
		return 0
	}
	return es.n
}

// Sidecar file format (little endian):
//
//	magic "TWPE" | version u32 | segments u32 | count u64
//	count × ( id u32 | len u32 | segments × min f64 | segments × max f64 )
//	crc32(IEEE) of everything above, u32
const (
	envMagic   = "TWPE"
	envVersion = 1
	envHeader  = 4 + 4 + 4 + 8
	envRecSize = 4 + 4 + 16*seq.PAASegments
)

// Save writes the store to path atomically (temp file + rename). The
// sidecar is a pure cache: a crash between heap append and Save simply
// means the next Open falls back to a rebuild.
func (es *EnvStore) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(f, crc))
	if _, err := bw.WriteString(envMagic); err != nil {
		f.Close()
		return err
	}
	var scratch [8]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := bw.Write(scratch[:8])
		return err
	}
	if err := writeU32(envVersion); err == nil {
		err = writeU32(seq.PAASegments)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := writeU64(uint64(es.n)); err != nil {
		f.Close()
		return err
	}
	for id := range es.envs {
		e := &es.envs[id]
		if e.Len == 0 {
			continue
		}
		if err := writeU32(uint32(id)); err != nil {
			f.Close()
			return err
		}
		if err := writeU32(uint32(e.Len)); err != nil {
			f.Close()
			return err
		}
		for k := 0; k < seq.PAASegments; k++ {
			if err := writeU64(binFloat(e.Min[k])); err != nil {
				f.Close()
				return err
			}
		}
		for k := 0; k < seq.PAASegments; k++ {
			if err := writeU64(binFloat(e.Max[k])); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	sum := crc.Sum32()
	binary.LittleEndian.PutUint32(scratch[:4], sum)
	if _, err := f.Write(scratch[:4]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsx.RenameAndSyncDir(tmp, path)
}

// maxEnvSpan bounds the ID span a sidecar may cover per stored record. The
// in-memory slab has one slot per ID up to the largest, so without a bound
// a few bytes of CRC-valid sidecar naming ID 2^32−2 would allocate over a
// terabyte. A store whose live records fill less than 1/maxEnvSpan of its
// ID range is treated as damaged and rebuilt from the heap on open.
const maxEnvSpan = 64

// LoadEnvStore reads a sidecar written by Save, verifying magic, version,
// segment count, checksum, and every record: the count must match the
// payload, IDs must strictly increase (Save writes them in order) within
// maxEnvSpan slots per record, and segment bounds must be finite with
// Min ≤ Max. Any inconsistency is an error — the caller rebuilds from the
// heap instead of trusting a damaged cache.
func LoadEnvStore(path string) (*EnvStore, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	es, err := decodeEnvStore(raw)
	if err != nil {
		return nil, fmt.Errorf("envstore: %s: %w", path, err)
	}
	return es, nil
}

// decodeEnvStore parses and validates the bytes of a sidecar file.
func decodeEnvStore(raw []byte) (*EnvStore, error) {
	if len(raw) < envHeader+4 {
		return nil, fmt.Errorf("truncated (%d bytes)", len(raw))
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if got, want := binary.LittleEndian.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, errors.New("checksum mismatch")
	}
	if string(body[:4]) != envMagic {
		return nil, errors.New("bad magic")
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != envVersion {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	if segs := binary.LittleEndian.Uint32(body[8:12]); segs != seq.PAASegments {
		return nil, fmt.Errorf("segment count %d, built with %d", segs, seq.PAASegments)
	}
	// Divide rather than multiply: count·envRecSize wraps for a hostile count.
	count := binary.LittleEndian.Uint64(body[12:envHeader])
	payload := len(body) - envHeader
	if payload%envRecSize != 0 || count != uint64(payload/envRecSize) {
		return nil, fmt.Errorf("%d records do not fit %d payload bytes", count, payload)
	}
	recs := body[envHeader:]
	span := uint64(0) // slab slots: the last (largest) ID plus one
	if len(recs) > 0 {
		span = uint64(binary.LittleEndian.Uint32(recs[len(recs)-envRecSize:])) + 1
		if span > maxEnvSpan*count {
			return nil, fmt.Errorf("largest ID %d is too sparse for %d records", span-1, count)
		}
	}
	es := &EnvStore{envs: make([]seq.PAAEnvelope, 0, span)}
	next := uint64(0) // smallest ID the next record may carry
	for off := 0; off < len(recs); off += envRecSize {
		rec := recs[off : off+envRecSize]
		id := uint64(binary.LittleEndian.Uint32(rec))
		if id < next || id >= span {
			return nil, fmt.Errorf("record ID %d out of order", id)
		}
		next = id + 1
		n := int(binary.LittleEndian.Uint32(rec[4:]))
		if n <= 0 {
			return nil, fmt.Errorf("record %d has length %d", id, n)
		}
		var e seq.PAAEnvelope
		e.Len = n
		for k := 0; k < seq.PAASegments; k++ {
			e.Min[k] = floatBin(binary.LittleEndian.Uint64(rec[8+8*k:]))
			e.Max[k] = floatBin(binary.LittleEndian.Uint64(rec[8+8*(seq.PAASegments+k):]))
			if math.IsInf(e.Min[k], 0) || math.IsInf(e.Max[k], 0) || !(e.Min[k] <= e.Max[k]) {
				return nil, fmt.Errorf("record %d segment %d has bounds [%v, %v]",
					id, k, e.Min[k], e.Max[k])
			}
		}
		es.Put(seq.ID(id), e)
	}
	return es, nil
}

// BuildEnvStore derives the store from a full heap scan — the
// rebuild-on-open migration path for databases created before envelopes
// existed, and the recovery path for a damaged sidecar.
func BuildEnvStore(db *seqdb.DB) (*EnvStore, error) {
	es := NewEnvStore()
	err := db.Scan(func(id seq.ID, s seq.Sequence) error {
		e, err := seq.ExtractPAAEnvelope(s)
		if err != nil {
			return fmt.Errorf("envstore: sequence %d: %w", id, err)
		}
		es.Put(id, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return es, nil
}

func binFloat(v float64) uint64 { return math.Float64bits(v) }
func floatBin(b uint64) float64 { return math.Float64frombits(b) }
