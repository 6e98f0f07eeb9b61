package director

import (
	"fmt"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/tenant"
	"sigmadedupe/internal/wire"
)

// The durable director's three journals are record logs (internal/wire):
// framing, torn tails and fsync live there; this file owns the bodies.
// Counts, IDs and sizes are uvarints, fingerprints raw, strings
// u32-prefixed, so a recipe costs ≈ 24 bytes per 4 KB chunk entry.
//
//	RECIPES put:    1 | tenant string | name string | session uvarint | gen uvarint
//	                  | n uvarint | n × (fp [20] | size uvarint | node uvarint | replica+1 uvarint)
//	RECIPES del:    2 | tenant string | name string
//	MEMBERS epoch:  1 | epoch uvarint | n uvarint | n × (id uvarint | addr string)
//	MEMBERS mig:    2 | id uvarint | path string | from uvarint | to uvarint
//	                  | start uvarint | count uvarint | n uvarint | n × fp [20]
//	MEMBERS migend: 3 | id uvarint
//	TENANTS upsert: 1 | name string | domain string | quota i64 | weight i64
//
// A replica is journaled shifted by one, so 0 means none (Replica -1).
// Signed 32-bit fields travel as their unsigned bit pattern.
const (
	recPut byte = 1
	recDel byte = 2

	recEpoch  byte = 1
	recMig    byte = 2
	recMigEnd byte = 3

	recTenant byte = 1
)

func appendI32(b []byte, v int32) []byte { return wire.AppendUvarint(b, uint64(uint32(v))) }

func readI32(r *wire.Reader) int32 { return int32(uint32(r.Uvarint())) }

func appendPut(b []byte, tn, name string, session, gen uint64, chunks []ChunkEntry) []byte {
	b = append(b, recPut)
	b = wire.AppendString(b, tn)
	b = wire.AppendString(b, name)
	b = wire.AppendUvarint(b, session)
	b = wire.AppendUvarint(b, gen)
	b = wire.AppendUvarint(b, uint64(len(chunks)))
	for i := range chunks {
		c := &chunks[i]
		b = append(b, c.FP[:]...)
		b = appendI32(b, c.Size)
		b = appendI32(b, c.Node)
		b = appendI32(b, c.Replica+1)
	}
	return b
}

func appendDel(b []byte, tn, name string) []byte {
	b = wire.AppendString(append(b, recDel), tn)
	return wire.AppendString(b, name)
}

// recipeRecord is one decoded RECIPES record. Tenant "" (a record written
// before multi-tenancy) replays into the default tenant.
type recipeRecord struct {
	kind         byte
	tenant, name string
	session, gen uint64
	chunks       []ChunkEntry
}

func decodeRecipeRecord(body []byte) (recipeRecord, error) {
	r := wire.NewReader(body)
	rec := recipeRecord{kind: r.U8()}
	switch rec.kind {
	case recPut, recDel:
	default:
		return rec, fmt.Errorf("unknown record type %d", rec.kind)
	}
	rec.tenant = r.String()
	rec.name = r.String()
	if rec.kind == recPut {
		rec.session = r.Uvarint()
		rec.gen = r.Uvarint()
		// An entry is a fingerprint plus three varints of a byte or more.
		if n := r.UvarintCount(fingerprint.Size + 3); n > 0 {
			rec.chunks = make([]ChunkEntry, n)
			for i := range rec.chunks {
				c := &rec.chunks[i]
				copy(c.FP[:], r.Raw(fingerprint.Size))
				c.Size = readI32(r)
				c.Node = readI32(r)
				c.Replica = readI32(r) - 1
			}
		}
	}
	return rec, r.Done()
}

func appendEpoch(b []byte, epoch uint64, nodes []NodeInfo) []byte {
	b = wire.AppendUvarint(append(b, recEpoch), epoch)
	b = wire.AppendUvarint(b, uint64(len(nodes)))
	for _, n := range nodes {
		b = wire.AppendUvarint(b, uint64(n.ID))
		b = wire.AppendString(b, n.Addr)
	}
	return b
}

func appendMig(b []byte, m *Migration) []byte {
	b = wire.AppendUvarint(append(b, recMig), m.ID)
	b = wire.AppendString(b, m.Path)
	b = appendI32(b, m.From)
	b = appendI32(b, m.To)
	b = wire.AppendUvarint(b, uint64(m.Start))
	b = wire.AppendUvarint(b, uint64(m.Count))
	b = wire.AppendUvarint(b, uint64(len(m.FPs)))
	for i := range m.FPs {
		b = append(b, m.FPs[i][:]...)
	}
	return b
}

func appendMigEnd(b []byte, id uint64) []byte {
	return wire.AppendUvarint(append(b, recMigEnd), id)
}

// memberRecord is one decoded MEMBERS record: an epoch (members), or a
// migration's begin (mig) or end (mig.ID).
type memberRecord struct {
	kind    byte
	members MembershipInfo
	mig     Migration
}

func decodeMemberRecord(body []byte) (memberRecord, error) {
	r := wire.NewReader(body)
	rec := memberRecord{kind: r.U8()}
	switch rec.kind {
	case recEpoch:
		rec.members.Epoch = r.Uvarint()
		// A node is an ID varint plus a 4-byte address length.
		if n := r.UvarintCount(5); n > 0 {
			rec.members.Nodes = make([]NodeInfo, n)
			for i := range rec.members.Nodes {
				rec.members.Nodes[i] = NodeInfo{ID: int(r.Uvarint()), Addr: r.String()}
			}
		}
	case recMig:
		m := &rec.mig
		m.ID = r.Uvarint()
		m.Path = r.String()
		m.From = readI32(r)
		m.To = readI32(r)
		m.Start = int(r.Uvarint())
		m.Count = int(r.Uvarint())
		if n := r.UvarintCount(fingerprint.Size); n > 0 {
			m.FPs = make([]fingerprint.Fingerprint, n)
			for i := range m.FPs {
				copy(m.FPs[i][:], r.Raw(fingerprint.Size))
			}
		}
	case recMigEnd:
		rec.mig.ID = r.Uvarint()
	default:
		return rec, fmt.Errorf("unknown record type %d", rec.kind)
	}
	return rec, r.Done()
}

func appendTenant(b []byte, info tenant.Info) []byte {
	b = wire.AppendString(append(b, recTenant), info.Name)
	b = wire.AppendString(b, info.Domain)
	b = wire.AppendI64(b, info.QuotaBytes)
	return wire.AppendI64(b, int64(info.Weight))
}

func decodeTenantRecord(body []byte) (tenant.Info, error) {
	r := wire.NewReader(body)
	if k := r.U8(); k != recTenant {
		return tenant.Info{}, fmt.Errorf("unknown record type %d", k)
	}
	info := tenant.Info{Name: r.String(), Domain: r.String(), QuotaBytes: r.I64(), Weight: int(r.I64())}
	return info, r.Done()
}

// writeRecord appends one record encoded by enc to l, fsynced, encoding
// into the reused d.rec; caller holds d.mu. A nil log (an in-RAM
// director) is a no-op.
func (d *Director) writeRecord(l *wire.Log, enc func(b []byte) []byte) error {
	if l == nil {
		return nil
	}
	d.rec = enc(wire.BeginRecord(d.rec[:0]))
	wire.EndRecord(d.rec, 0)
	if err := l.Write(d.rec, true); err != nil {
		return fmt.Errorf("director: %w", err)
	}
	return nil
}
