package store

import (
	"encoding/json"
	"fmt"

	"sigmadedupe/internal/container"
	"sigmadedupe/internal/fingerprint"
)

// legacyRecord is one line of a manifest written as JSON lines, the
// format before the record log:
//
//	{"t":"seal","cid":7,"file":"container-00000007.bin","chunks":128,"bytes":4194304,"crc":3735928559}
//	{"t":"rfp","fps":["<40-hex>",...],"cids":[7,...]}
//	{"t":"ref","fps":["<40-hex>",...],"ns":[2,...]}
//	{"t":"decref","fps":["<40-hex>",...],"ns":[1,...]}
//	{"t":"retire","cid":7}
type legacyRecord struct {
	T      string   `json:"t"`
	CID    uint64   `json:"cid"`
	File   string   `json:"file"`
	Chunks int      `json:"chunks"`
	Bytes  int64    `json:"bytes"`
	CRC    uint32   `json:"crc"`
	FPs    []string `json:"fps"`
	CIDs   []uint64 `json:"cids"`
	Ns     []int64  `json:"ns"`
}

// legacyManifestLine converts one JSON manifest line into the body of the
// equivalent record (a wire.LegacyLine). A missing count is 1, as the JSON
// replay read it; an rfp record whose lists disagree in length converts to
// nothing, as the JSON replay skipped it.
func legacyManifestLine(b, line []byte) ([]byte, error) {
	var r legacyRecord
	if err := json.Unmarshal(line, &r); err != nil {
		return b, err
	}
	fps := make([]fingerprint.Fingerprint, len(r.FPs))
	for i, hex := range r.FPs {
		var err error
		if fps[i], err = fingerprint.Parse(hex); err != nil {
			return b, err
		}
	}
	switch r.T {
	case "seal":
		return appendSeal(b, container.SealRecord{CID: r.CID, File: r.File, Chunks: r.Chunks, Bytes: r.Bytes, CRC: r.CRC}), nil
	case "retire":
		return appendRetire(b, r.CID), nil
	case "rfp":
		if len(fps) != len(r.CIDs) {
			return b, nil
		}
		return appendEntries(b, recRFP, fps, r.CIDs), nil
	case "ref", "decref":
		ns := make([]int64, len(fps))
		for i := range ns {
			ns[i] = 1
			if i < len(r.Ns) {
				ns[i] = r.Ns[i]
			}
		}
		kind := recRef
		if r.T == "decref" {
			kind = recDecref
		}
		return appendEntries(b, kind, fps, ns), nil
	}
	return b, fmt.Errorf("unknown record type %q", r.T)
}
