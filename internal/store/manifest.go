// Manifest: the append-only journal that makes a storage engine
// restartable — a record log (internal/wire) whose bodies are one of five
// binary records, fingerprints raw and counts as uvarints:
//
//	seal:   1 | cid uvarint | file string | chunks uvarint | bytes uvarint | crc u32
//	rfp:    2 | n uvarint | n × (fp [20] | cid uvarint)
//	ref:    3 | n uvarint | n × (fp [20] | count uvarint)
//	decref: 4 | n uvarint | n × (fp [20] | count uvarint)
//	retire: 5 | cid uvarint
//
// A "seal" record commits a spilled container (written and fsynced before
// the record lands, so a record always names a complete file). An "rfp"
// record journals the representative-fingerprint → container entries one
// stored super-chunk added to the similarity index. A "ref" record
// journals chunk-reference increments (one count per fingerprint) from
// stored super-chunks; a "decref" record journals the reference
// decrements of a backup deletion — together they make the per-chunk
// refcounts, and with them the per-container live ratios, recoverable. A
// "retire" record commits a compaction: the named container's surviving
// chunks live in a later-sealed container, and its file is dead. A
// manifest written as JSON lines (one {"t":"seal",...} object per record,
// fingerprints as hex) is converted once on open (legacy.go).
//
// Recovery replays seal records first (rebuilding the chunk index and
// container directory from container metadata, CRC-verified, skipping
// retired containers), then rfp records in order, then ref/decref records
// in journal order. A torn final record — a crash mid-append — is cut off
// (the record log's rule); damaged earlier records fail the open, and so
// do records of an unknown type or retire/decref records referencing
// containers or chunk references the journal never introduced: a manifest
// that claims to delete state this store never had is corrupt, and
// restoring from it silently could hand the compactor live chunks.
//
// Durability classes: seal, retire and decref records are fsynced (they
// commit container data, container death, and backup deletion
// respectively). rfp and ref records are buffered in RAM and batch-
// written — they are drained ahead of every seal record (whose fsync then
// covers them) and Flush both drains and fsyncs, so after a successful
// Flush the refcounts of everything stored are durable. Losing unflushed
// ref records in a crash can only over-count references (the backup that
// made them never became durable either), which leaks space but never
// frees a live chunk.
package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sigmadedupe/internal/container"
	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/wire"
)

// ManifestName is the manifest's file name under the engine's Dir.
const ManifestName = "MANIFEST"

// Manifest record types: the first byte of a record body.
const (
	recSeal   byte = 1
	recRFP    byte = 2
	recRef    byte = 3
	recDecref byte = 4
	recRetire byte = 5
)

// record is one decoded manifest record.
type record struct {
	kind   byte
	cid    uint64 // seal, retire
	file   string // seal
	chunks int
	bytes  int64
	crc    uint32
	fps    []fingerprint.Fingerprint // rfp, ref, decref
	vals   []uint64                  // rfp: container IDs; ref, decref: counts
}

// manifest is the open append handle. seal, retire and decref records are
// fsynced (they commit data, a container's death, and a deletion
// respectively), rfp and ref records are not (rfp loss only degrades the
// recovered similarity index; ref loss can only over-count, see the
// package comment). rfp/ref records are encoded, framed, into one RAM
// buffer under the short bufMu and written in batches, so the per-super-
// chunk store path never touches the file.
type manifest struct {
	log *wire.Log

	// mu orders writes: a batch taken from buf is on disk before any
	// record written after it, so a decref never precedes its refs.
	mu    sync.Mutex
	spare []byte // the array of the last batch written, for reuse

	bufMu sync.Mutex
	buf   []byte // framed rfp/ref records not yet written
}

// bufFlushThreshold bounds the bytes of buffered rfp/ref records before
// an inline batch write.
const bufFlushThreshold = 1 << 20

// openManifest opens (creating) the manifest under dir and returns its
// decoded records.
func openManifest(dir string) (*manifest, []record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("manifest: create dir: %w", err)
	}
	var recs []record
	log, err := wire.OpenLog(filepath.Join(dir, ManifestName), wire.LogManifest, legacyManifestLine,
		func(body []byte) error {
			r, err := decodeRecord(body)
			if err != nil {
				return fmt.Errorf("record %d: %w", len(recs)+1, err)
			}
			recs = append(recs, r)
			return nil
		})
	if err != nil {
		return nil, nil, fmt.Errorf("manifest: %w", err)
	}
	return &manifest{log: log}, recs, nil
}

func appendSeal(b []byte, rec container.SealRecord) []byte {
	b = append(b, recSeal)
	b = wire.AppendUvarint(b, rec.CID)
	b = wire.AppendString(b, rec.File)
	b = wire.AppendUvarint(b, uint64(rec.Chunks))
	b = wire.AppendUvarint(b, uint64(rec.Bytes))
	return wire.AppendU32(b, rec.CRC)
}

func appendRetire(b []byte, cid uint64) []byte {
	return wire.AppendUvarint(append(b, recRetire), cid)
}

// appendEntries encodes an rfp, ref or decref record: one value per
// fingerprint.
func appendEntries[V int64 | uint64](b []byte, kind byte, fps []fingerprint.Fingerprint, vals []V) []byte {
	b = append(b, kind)
	b = wire.AppendUvarint(b, uint64(len(fps)))
	for i := range fps {
		b = append(b, fps[i][:]...)
		b = wire.AppendUvarint(b, uint64(vals[i]))
	}
	return b
}

// decodeRecord parses one record body; an unknown type is an error.
func decodeRecord(body []byte) (record, error) {
	r := wire.NewReader(body)
	rec := record{kind: r.U8()}
	switch rec.kind {
	case recSeal:
		rec.cid = r.Uvarint()
		rec.file = r.String()
		rec.chunks = int(r.Uvarint())
		rec.bytes = int64(r.Uvarint())
		rec.crc = r.U32()
	case recRetire:
		rec.cid = r.Uvarint()
	case recRFP, recRef, recDecref:
		// An entry is a fingerprint plus at least one varint byte.
		n := r.UvarintCount(fingerprint.Size + 1)
		rec.fps = make([]fingerprint.Fingerprint, n)
		rec.vals = make([]uint64, n)
		for i := 0; i < n; i++ {
			copy(rec.fps[i][:], r.Raw(fingerprint.Size))
			rec.vals[i] = r.Uvarint()
		}
	default:
		return rec, fmt.Errorf("unknown record type %d", rec.kind)
	}
	if err := r.Done(); err != nil {
		return rec, err
	}
	return rec, nil
}

// write drains the buffered rfp/ref records — followed, when enc is set,
// by one record it encodes — in a single write, and fsyncs when sync is
// set. A synced record is the commit point of a seal, retire or decref,
// and makes the records ahead of it durable too.
func (m *manifest) write(enc func(b []byte) []byte, sync bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bufMu.Lock()
	batch := m.buf
	m.buf, m.spare = m.spare[:0], nil
	m.bufMu.Unlock()
	if enc != nil {
		start := len(batch)
		batch = enc(wire.BeginRecord(batch))
		wire.EndRecord(batch, start)
	}
	err := m.log.Write(batch, sync)
	m.spare = batch[:0]
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}

func (m *manifest) appendSeal(rec container.SealRecord) error {
	return m.write(func(b []byte) []byte { return appendSeal(b, rec) }, true)
}

// appendRetire journals (fsynced) that a compacted container is dead: its
// surviving chunks live in a later-sealed container and its file may be
// removed. Replay must see any seal records for the survivors' new home
// before this, which the compactor guarantees by sealing first.
func (m *manifest) appendRetire(cid uint64) error {
	return m.write(func(b []byte) []byte { return appendRetire(b, cid) }, true)
}

// appendDecref journals (fsynced) the reference decrements of one backup
// deletion — the deletion's commit point.
func (m *manifest) appendDecref(fps []fingerprint.Fingerprint, ns []int64) error {
	return m.write(func(b []byte) []byte { return appendEntries(b, recDecref, fps, ns) }, true)
}

// bufferRFPs queues one super-chunk's similarity-index entries. No file
// I/O happens here — the hot store path only appends to a buffer.
func (m *manifest) bufferRFPs(fps []fingerprint.Fingerprint, cids []uint64) error {
	return bufferEntries(m, recRFP, fps, cids)
}

// bufferRefs queues one super-chunk's chunk-reference increments.
func (m *manifest) bufferRefs(fps []fingerprint.Fingerprint, ns []int64) error {
	return bufferEntries(m, recRef, fps, ns)
}

// bufferEntries encodes one rfp or ref record, framed, onto the buffer and
// writes the buffer out once it passes bufFlushThreshold.
func bufferEntries[V int64 | uint64](m *manifest, kind byte, fps []fingerprint.Fingerprint, vals []V) error {
	m.bufMu.Lock()
	start := len(m.buf)
	m.buf = appendEntries(wire.BeginRecord(m.buf), kind, fps, vals)
	wire.EndRecord(m.buf, start)
	full := len(m.buf) >= bufFlushThreshold
	m.bufMu.Unlock()
	if full {
		return m.flushBuffered()
	}
	return nil
}

// flushBuffered writes all buffered rfp/ref records as one batch.
func (m *manifest) flushBuffered() error { return m.write(nil, false) }

// sync drains buffered records and fsyncs the manifest, making every
// journaled fact durable (Flush's commit point for refcounts on backups
// that seal no container).
func (m *manifest) sync() error { return m.write(nil, true) }

func (m *manifest) close() error {
	err := m.sync()
	if cerr := m.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// replay rebuilds engine state from manifest records: the retired set is
// collected first (with loud validation — unknown record types and
// retire/decref records referencing state the journal never introduced
// fail the open), then seal records rebuild the container directory and
// chunk index (later seals of a compacted chunk's new home overwrite the
// old location, exactly as the compactor did online), then rfp records
// rebuild the similarity index, then ref/decref records in journal order
// rebuild the chunk refcounts, and finally a sweep over the adopted
// containers re-derives per-container dead bytes so the compactor's
// live-ratio scan resumes where it left off.
func (e *Engine) replay(recs []record) error {
	// Pass 1 (record types were validated by decodeRecord): collect
	// retires in journal order.
	sealed := make(map[uint64]bool)
	retired := make(map[uint64]bool)
	for i, r := range recs {
		switch r.kind {
		case recSeal:
			sealed[r.cid] = true
		case recRetire:
			if !sealed[r.cid] {
				return fmt.Errorf("manifest: record %d: retire of container %d the journal never sealed", i+1, r.cid)
			}
			if retired[r.cid] {
				return fmt.Errorf("manifest: record %d: container %d retired twice", i+1, r.cid)
			}
			retired[r.cid] = true
		}
	}

	// Pass 2: adopt sealed containers, skipping retired ones (their files
	// are dead; a leftover from a crash between the retire record and the
	// file removal is deleted here).
	var adopted []*container.Container
	for _, r := range recs {
		if r.kind != recSeal {
			continue
		}
		if retired[r.cid] {
			e.containers.AdvanceID(r.cid) // never re-allocate a journaled ID
			if r.file != "" {
				_ = os.Remove(filepath.Join(e.cfg.Dir, r.file))
			}
			continue
		}
		raw, err := os.ReadFile(filepath.Join(e.cfg.Dir, r.file))
		if err != nil {
			return fmt.Errorf("recover container %d: %w", r.cid, err)
		}
		c, err := container.DecodeMeta(raw)
		if err != nil {
			return fmt.Errorf("recover container %d (%s): %w", r.cid, r.file, err)
		}
		if c.ID != r.cid {
			return fmt.Errorf("recover container %d (%s): %w: file holds container %d",
				r.cid, r.file, container.ErrCorrupt, c.ID)
		}
		// Cross-check the journaled CRC: a self-consistent but substituted
		// container file must not pass recovery.
		if got := binary.BigEndian.Uint32(raw[len(raw)-4:]); got != r.crc {
			return fmt.Errorf("recover container %d (%s): %w: file CRC %08x, manifest committed %08x",
				r.cid, r.file, container.ErrCorrupt, got, r.crc)
		}
		if e.cidx != nil {
			for _, cm := range c.Meta {
				e.cidx.Insert(cm.FP, container.Loc{CID: c.ID, Offset: cm.Offset, Length: cm.Length})
			}
		}
		e.uniqueChunks.Add(int64(len(c.Meta)))
		e.physicalBytes.Add(int64(c.Bytes()))
		// Metadata stays resident; the payload lives on disk and is pulled
		// through the loaded-container LRU on demand.
		e.containers.AdoptSealed(c, true)
		adopted = append(adopted, c)
	}

	// Pass 3: similarity index.
	for _, r := range recs {
		if r.kind != recRFP {
			continue
		}
		for i, fp := range r.fps {
			if !e.containers.IsSealed(r.vals[i]) {
				continue // pointed at a container lost with the crash
			}
			e.sim.Insert(fp, r.vals[i])
		}
	}

	// Pass 4–5: refcounts. Skipped when GC is disabled (no chunk index to
	// anchor liveness to); deletion is unsupported there anyway.
	if !e.gcEnabled() {
		return nil
	}
	// Legacy manifests predate refcounting: they hold sealed chunks but no
	// ref/decref records at all. Replaying them verbatim would leave every
	// chunk at zero references — the dead sweep below would mark the whole
	// store dead and the first compaction would delete all pre-upgrade
	// data. Instead, seed one reference per primary chunk copy (the
	// conservative direction: retained forever unless something explicitly
	// decrefs) and journal the seeding so the store is only ever migrated
	// once — later sessions see the seeded ref records like any others.
	hasRefRecords := false
	for _, r := range recs {
		if r.kind == recRef || r.kind == recDecref {
			hasRefRecords = true
			break
		}
	}
	if !hasRefRecords && len(adopted) > 0 {
		for _, c := range adopted {
			var fps []fingerprint.Fingerprint
			for _, cm := range c.Meta {
				if loc, ok := e.cidx.Peek(cm.FP); ok && loc.CID == c.ID {
					e.shardFor(cm.FP).refs[cm.FP] = 1
					fps = append(fps, cm.FP)
				}
			}
			if len(fps) > 0 {
				ns := make([]int64, len(fps))
				for i := range ns {
					ns[i] = 1
				}
				if err := e.man.bufferRefs(fps, ns); err != nil {
					return err
				}
			}
		}
		if err := e.man.sync(); err != nil {
			return err
		}
	}
	for i, r := range recs {
		if r.kind != recRef && r.kind != recDecref {
			continue
		}
		for j, fp := range r.fps {
			n := int64(r.vals[j])
			if n <= 0 {
				return fmt.Errorf("manifest: record %d: non-positive refcount delta %d for %s", i+1, n, fp.Short())
			}
			sh := e.shardFor(fp)
			if r.kind == recRef {
				sh.refs[fp] += n
				continue
			}
			if sh.refs[fp] < n {
				return fmt.Errorf(
					"manifest: record %d: decref of %d references on chunk %s which has only %d — deletion of state this store never held",
					i+1, n, fp.Short(), sh.refs[fp])
			}
			sh.refs[fp] -= n
			if sh.refs[fp] == 0 {
				delete(sh.refs, fp)
			}
		}
	}
	// Drop refcounts for chunks lost with unsealed containers (their ref
	// records were drained by another stream's seal before the crash, but
	// the chunks themselves never became durable — and neither did the
	// backup that referenced them).
	for i := range e.shards {
		sh := &e.shards[i]
		for fp := range sh.refs {
			if _, ok := e.cidx.Peek(fp); !ok {
				delete(sh.refs, fp)
			}
		}
	}
	// Pass 6: per-container dead bytes. A chunk copy is dead when nothing
	// references it any more, or when the chunk index points at another
	// copy (a compaction that crashed after sealing the new home but
	// before retiring the old one leaves such stale copies behind; marking
	// them dead lets the next compaction run converge).
	for _, c := range adopted {
		var dead int64
		for _, cm := range c.Meta {
			sh := e.shardFor(cm.FP)
			loc, ok := e.cidx.Peek(cm.FP)
			if sh.refs[cm.FP] == 0 || !ok || loc.CID != c.ID {
				dead += int64(cm.Length)
			}
		}
		if dead > 0 {
			e.dead[c.ID] = dead
		}
	}
	return nil
}
