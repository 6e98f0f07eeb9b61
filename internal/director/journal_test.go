package director

import (
	"encoding/hex"
	"reflect"
	"testing"

	"sigmadedupe/internal/fingerprint"
	"sigmadedupe/internal/tenant"
	"sigmadedupe/internal/wire"
)

// frame frames one journal record encoded by enc, as the record log
// stores it.
func frame(enc func(b []byte) []byte) []byte {
	b := enc(wire.BeginRecord(nil))
	wire.EndRecord(b, 0)
	return b
}

// TestJournalRecordGolden pins one framed encoding per record type of the
// three director journals, and decodes each body back.
func TestJournalRecordGolden(t *testing.T) {
	fp := fingerprint.Sum([]byte("golden"))
	chunks := []ChunkEntry{{FP: fp, Size: 4096, Node: 1, Replica: 2}, {FP: fp, Size: 70000, Node: 0, Replica: -1}}
	nodes := []NodeInfo{{ID: 0, Addr: "10.0.0.1:7701"}, {ID: 3}}
	mig := Migration{ID: 3, Path: tenant.Key("acme", "a"), From: 1, To: 2, Start: 4, Count: 1, FPs: []fingerprint.Fingerprint{fp}}
	info := tenant.Info{Name: "acme", Domain: tenant.DomainIsolated, QuotaBytes: 1 << 20, Weight: 3}
	put := frame(func(b []byte) []byte { return appendPut(b, "acme", "a", 7, 2, chunks) })
	del := frame(func(b []byte) []byte { return appendDel(b, "acme", "a") })
	epoch := frame(func(b []byte) []byte { return appendEpoch(b, 2, nodes) })
	begin := frame(func(b []byte) []byte { return appendMig(b, &mig) })
	end := frame(func(b []byte) []byte { return appendMigEnd(b, 3) })
	upsert := frame(func(b []byte) []byte { return appendTenant(b, info) })
	for _, tc := range []struct {
		name, want string
		enc        []byte
	}{
		{"RECIPES put", "42000000a47f8c43010400000061636d650100000061070202ec30adc79e734900430e4174cf0a36c2d0c4227280200103ec30adc79e734900430e4174cf0a36c2d0c42272f0a2040000", put},
		{"RECIPES del", "0e000000186329a7020400000061636d650100000061", del},
		{"MEMBERS epoch", "1a000000ea8f60ae010202000d00000031302e302e302e313a373730310300000000", epoch},
		{"MEMBERS mig", "250000005ebcac7d02030600000061636d6500610102040101ec30adc79e734900430e4174cf0a36c2d0c42272", begin},
		{"MEMBERS migend", "02000000bf2cd6d60303", end},
		{"TENANTS upsert", "250000006b2c388b010400000061636d650800000069736f6c6174656400001000000000000300000000000000", upsert},
	} {
		if got := hex.EncodeToString(tc.enc); got != tc.want {
			t.Errorf("%s: encoding %s, want %s (journal format changed)", tc.name, got, tc.want)
		}
	}

	const head = 8 // the frame header: length, CRC
	if r, err := decodeRecipeRecord(put[head:]); err != nil || !reflect.DeepEqual(r,
		recipeRecord{kind: recPut, tenant: "acme", name: "a", session: 7, gen: 2, chunks: chunks}) {
		t.Errorf("put decodes to %+v, %v", r, err)
	}
	if r, err := decodeRecipeRecord(del[head:]); err != nil || !reflect.DeepEqual(r, recipeRecord{kind: recDel, tenant: "acme", name: "a"}) {
		t.Errorf("del decodes to %+v, %v", r, err)
	}
	if r, err := decodeMemberRecord(epoch[head:]); err != nil || !reflect.DeepEqual(r,
		memberRecord{kind: recEpoch, members: MembershipInfo{Epoch: 2, Nodes: nodes}}) {
		t.Errorf("epoch decodes to %+v, %v", r, err)
	}
	if r, err := decodeMemberRecord(begin[head:]); err != nil || !reflect.DeepEqual(r, memberRecord{kind: recMig, mig: mig}) {
		t.Errorf("mig decodes to %+v, %v", r, err)
	}
	if r, err := decodeMemberRecord(end[head:]); err != nil || !reflect.DeepEqual(r, memberRecord{kind: recMigEnd, mig: Migration{ID: 3}}) {
		t.Errorf("migend decodes to %+v, %v", r, err)
	}
	if got, err := decodeTenantRecord(upsert[head:]); err != nil || got != info {
		t.Errorf("tenant upsert decodes to %+v, %v", got, err)
	}
}
